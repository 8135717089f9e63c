// Multi-sensor example: the paper's proposed extension — "the fusion
// engine … can readily be extended to fuse data from multiple sensors
// together (eg. lidar and video) to provide low-cost situational
// awareness systems". A camera and a lidar, each carrying a two-axis
// accelerometer, are aligned against the vehicle IMU by a filter of
// their own while the car drives; the estimator reports each sensor's
// boresight AND the camera↔lidar relative alignment that data fusion
// actually needs.
//
// Run with: go run ./examples/multisensor
package main

import (
	"fmt"
	"log"
	"math/rand"

	"boresight/internal/core"
	"boresight/internal/geom"
	"boresight/internal/imu"
	"boresight/internal/traj"
)

func main() {
	camMis := geom.EulerDeg(1.8, -0.9, 1.3)    // camera vs vehicle
	lidarMis := geom.EulerDeg(-0.7, 0.4, -2.1) // lidar vs vehicle

	cfg := core.DefaultConfig() // full state: angles + ACC bias + scale
	cfg.MeasNoise = 0.02
	fusion := core.NewMulti(2, cfg)

	dmu := imu.NewDMU(imu.DefaultDMUConfig(), 1)
	camACC := imu.NewACC(imu.DefaultACCConfig(camMis), 2)
	lidACC := imu.NewACC(imu.DefaultACCConfig(lidarMis), 3)
	drive := traj.CityDrive("drive", 300)
	vib := traj.DefaultVibration()
	rng := rand.New(rand.NewSource(4))

	const dt = 0.01
	for t := 0.0; t < drive.Duration(); t += dt {
		st := drive.At(t)
		v := vib.At(t, st.Vel.Norm())
		ds := dmu.Sample(st, v)
		cs := camACC.Sample(st, v)
		ls := lidACC.Sample(st, v)
		readings := []core.Reading{
			{FX: cs.FX, FY: cs.FY, Valid: true},
			// The lidar's ACC drops packets occasionally.
			{FX: ls.FX, FY: ls.FY, Valid: rng.Float64() > 0.05},
		}
		if err := fusion.Step(dt, ds.Accel, readings); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("joint multi-sensor boresight (camera + lidar, one drive)")
	for s, name := range []string{"camera", "lidar"} {
		got := fusion.Misalignment(s)
		sig := fusion.AngleSigmas(s)
		r, p, y := got.Deg()
		fmt.Printf("%-7s est %+6.3f° %+6.3f° %+6.3f°   3σ %.3f° %.3f° %.3f°\n",
			name, r, p, y,
			geom.Rad2Deg(3*sig[0]), geom.Rad2Deg(3*sig[1]), geom.Rad2Deg(3*sig[2]))
	}
	tr, tp, ty := camMis.Deg()
	fmt.Printf("%-7s true %+6.3f° %+6.3f° %+6.3f°\n", "camera", tr, tp, ty)
	tr, tp, ty = lidarMis.Deg()
	fmt.Printf("%-7s true %+6.3f° %+6.3f° %+6.3f°\n", "lidar", tr, tp, ty)

	rel, relSig := fusion.Relative(0, 1)
	want := camMis.DCM().T().Mul(lidarMis.DCM()).Euler()
	rr, rp, ry := rel.Deg()
	wr, wp, wy := want.Deg()
	fmt.Println()
	fmt.Println("camera ← lidar relative alignment (what overlays lidar on pixels):")
	fmt.Printf("estimated %+6.3f° %+6.3f° %+6.3f°  (3σ %.3f° %.3f° %.3f°)\n",
		rr, rp, ry,
		geom.Rad2Deg(3*relSig[0]), geom.Rad2Deg(3*relSig[1]), geom.Rad2Deg(3*relSig[2]))
	fmt.Printf("true      %+6.3f° %+6.3f° %+6.3f°\n", wr, wp, wy)
}
