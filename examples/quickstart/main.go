// Quickstart: estimate a camera's boresight misalignment from the
// common acceleration seen by a vehicle IMU and a sensor-mounted
// two-axis accelerometer, then print the video correction.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"boresight/internal/affine"
	"boresight/internal/geom"
	"boresight/internal/system"
)

func main() {
	// The sensor is mounted 2° rolled, 1.5° pitched down, 1° yawed.
	trueMis := geom.EulerDeg(2.0, -1.5, 1.0)

	// A 60-second static test on a tilting platform.
	cfg := system.StaticScenario(trueMis, 60, 1)
	res, err := system.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	r, p, y := res.Estimated.Deg()
	fmt.Println("boresight quickstart")
	fmt.Printf("true misalignment:      2.000°, -1.500°,  1.000°\n")
	fmt.Printf("estimated:             %6.3f°, %6.3f°, %6.3f°\n", r, p, y)
	fmt.Printf("errors:                %6.4f°, %6.4f°, %6.4f°\n",
		res.ErrorDeg[0], res.ErrorDeg[1], res.ErrorDeg[2])
	fmt.Printf("3σ confidence:         %6.4f°, %6.4f°, %6.4f° (within: %v)\n",
		res.ThreeSigmaDeg[0], res.ThreeSigmaDeg[1], res.ThreeSigmaDeg[2],
		res.WithinConfidence)

	// Convert the solution to the affine video correction the FPGA
	// datapath applies (focal length 400 px).
	prm := affine.FromMisalignment(res.Estimated, 400)
	fmt.Printf("video correction:       rotate %+.3f°, shift (%+.1f, %+.1f) px\n",
		geom.Rad2Deg(prm.Theta), prm.TX, prm.TY)
}
