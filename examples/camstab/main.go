// Camera realignment example: the paper's visualisation — a misaligned
// video camera corrected in real time by the fixed-point affine
// pipeline driven by the fusion filter's solution. This example
// estimates the misalignment from a short static test, then pushes
// frames through the clocked five-stage pipeline and writes
// before/after PPM images.
//
// Run with: go run ./examples/camstab
package main

import (
	"fmt"
	"log"
	"os"

	"boresight/internal/affine"
	"boresight/internal/fixed"
	"boresight/internal/geom"
	"boresight/internal/hcsim"
	"boresight/internal/rc200"
	"boresight/internal/system"
	"boresight/internal/video"
)

func main() {
	const (
		w, h  = 320, 240
		focal = 400.0
	)
	trueMis := geom.EulerDeg(4, 1.5, -1.0)

	// 1. Estimate the misalignment from a one-minute static test.
	res, err := system.Run(system.StaticScenario(trueMis, 60, 3))
	if err != nil {
		log.Fatal(err)
	}
	er, ep, ey := res.Estimated.Deg()
	fmt.Printf("estimated misalignment: %+.3f°, %+.3f°, %+.3f° (true %+.1f, %+.1f, %+.1f)\n",
		er, ep, ey, 4.0, 1.5, -1.0)

	// 2. Build the FPGA-side video path: ZBT SRAM framebuffer, LUT,
	// five-stage pipeline, display sink.
	sim := hcsim.NewSim()
	ram := rc200.NewSRAM(sim)
	disp := rc200.NewDisplay(w, h)
	lut := fixed.NewTrig(1024, fixed.TrigFrac)
	pipe := affine.NewPipeline(sim, lut, ram, disp, w, h)

	// The correction from the estimate (this is what the Sabre writes
	// into the control block).
	corr := affine.FromMisalignment(res.Estimated, focal)
	idx, tx, ty := affine.ControlFromParams(lut, corr)
	pipe.SetControl(idx, tx, ty)
	sim.Tick()

	// 3. Stream three frames of an animated scene through the
	// misaligned camera and the correction pipeline.
	trueCorr := affine.FromMisalignment(trueMis, focal)
	var totalCycles uint64
	for frameNo := 0; frameNo < 3; frameNo++ {
		scene := video.RoadScene{W: w, H: h, LaneOffset: float64(frameNo-1) * 15}.Render()
		distorted := affine.TransformFloat(scene, trueCorr.Invert(), true)
		ram.LoadFrame(distorted)

		start := sim.Cycle()
		pipe.Start()
		sim.Tick()
		for pipe.Busy() {
			sim.Tick()
		}
		totalCycles += sim.Cycle() - start

		// Measure over the interior: the black wedges a rotation pulls
		// in at the borders are unavoidable (no data exists there) and
		// would swamp the alignment improvement.
		before := video.MeanAbsDiff(crop(scene), crop(distorted))
		after := video.MeanAbsDiff(crop(scene), crop(disp.Frame))
		fmt.Printf("frame %d: interior alignment error %.2f -> %.2f (PSNR %.1f dB -> %.1f dB)\n",
			frameNo, before, after,
			video.PSNR(crop(scene), crop(distorted)), video.PSNR(crop(scene), crop(disp.Frame)))

		if frameNo == 1 {
			writePPM("camstab_scene.ppm", scene)
			writePPM("camstab_distorted.ppm", distorted)
			writePPM("camstab_corrected.ppm", disp.Frame)
		}
	}
	fmt.Printf("pipeline: %d cycles for 3 frames (%.1f fps at 25 MHz)\n",
		totalCycles, 3*25e6/float64(totalCycles))
}

// crop returns the central 60% of a frame.
func crop(f *video.Frame) *video.Frame {
	cw, ch := f.W*6/10, f.H*6/10
	x0, y0 := (f.W-cw)/2, (f.H-ch)/2
	out := video.NewFrame(cw, ch)
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			out.Set(x, y, f.At(x+x0, y+y0))
		}
	}
	return out
}

func writePPM(name string, f *video.Frame) {
	file, err := os.Create(name)
	if err != nil {
		log.Fatal(err)
	}
	defer file.Close()
	if err := f.WritePPM(file); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", name)
}
