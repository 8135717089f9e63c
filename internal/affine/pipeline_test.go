package affine

import (
	"testing"

	"boresight/internal/geom"
	"boresight/internal/hcsim"
	"boresight/internal/rc200"
	"boresight/internal/video"
)

// buildPipeline wires a simulator, SRAM preloaded with src, display and
// pipeline.
func buildPipeline(src *video.Frame) (*hcsim.Sim, *Pipeline, *rc200.Display) {
	sim := hcsim.NewSim()
	ram := rc200.NewSRAM(sim)
	ram.LoadFrame(src)
	disp := rc200.NewDisplay(src.W, src.H)
	p := NewPipeline(sim, stdLUT(), ram, disp, src.W, src.H)
	return sim, p, disp
}

func runFrame(t *testing.T, sim *hcsim.Sim, p *Pipeline) int {
	t.Helper()
	p.Start()
	sim.Tick() // latch start
	cycles := 1
	for p.Busy() {
		sim.Tick()
		cycles++
		if cycles > 10_000_000 {
			t.Fatal("pipeline never finished")
		}
	}
	return cycles
}

func TestPipelineIdentityFrame(t *testing.T) {
	src := video.Checkerboard(32, 24, 4)
	sim, p, disp := buildPipeline(src)
	runFrame(t, sim, p)
	if !disp.Frame.Equal(src) {
		t.Fatal("identity pipeline output differs from source")
	}
	if p.FramesDone() != 1 {
		t.Fatalf("FramesDone = %d", p.FramesDone())
	}
}

func TestPipelineMatchesPureFunction(t *testing.T) {
	// The clocked pipeline must be bit-identical to the straight-line
	// fixed-point transform for the same control values.
	src := video.RoadScene{W: 48, H: 36}.Render()
	lut := stdLUT()
	ft := NewFixedTransformer(lut)
	for _, deg := range []float64{1, 4, -3, 10} {
		prm := Params{Theta: geom.Deg2Rad(deg), TX: 2, TY: -1}
		want := ft.Transform(src, prm)

		sim, p, disp := buildPipeline(src)
		idx, tx, ty := ControlFromParams(lut, prm)
		p.SetControl(idx, tx, ty)
		sim.Tick() // latch control
		runFrame(t, sim, p)
		if !disp.Frame.Equal(want) {
			t.Fatalf("angle %v°: pipeline output differs from pure transform", deg)
		}
	}
}

func TestPipelineThroughputOnePixelPerCycle(t *testing.T) {
	src := video.Checkerboard(64, 64, 8)
	sim, p, _ := buildPipeline(src)
	cycles := runFrame(t, sim, p)
	pixels := 64 * 64
	// One pixel per cycle plus pipeline fill (a handful of cycles).
	if cycles < pixels || cycles > pixels+8 {
		t.Fatalf("frame took %d cycles for %d pixels", cycles, pixels)
	}
}

func TestPipelineBlackOutsideSource(t *testing.T) {
	src := video.NewFrame(32, 32)
	src.Fill(video.RGB(200, 200, 200))
	sim, p, disp := buildPipeline(src)
	lut := stdLUT()
	idx, tx, ty := ControlFromParams(lut, Params{Theta: geom.Deg2Rad(30)})
	p.SetControl(idx, tx, ty)
	sim.Tick()
	runFrame(t, sim, p)
	// 30° rotation of a square pulls in out-of-frame corners: some
	// output pixels must be black and counted.
	if p.BlackPixels() == 0 {
		t.Fatal("no out-of-range pixels under 30° rotation")
	}
	if disp.Frame.At(0, 0) != 0 {
		t.Fatal("corner pixel not black")
	}
	// Centre untouched.
	if disp.Frame.At(16, 16) != video.RGB(200, 200, 200) {
		t.Fatal("centre pixel wrong")
	}
}

func TestPipelineBackToBackFrames(t *testing.T) {
	src := video.Checkerboard(16, 16, 4)
	sim, p, disp := buildPipeline(src)
	runFrame(t, sim, p)
	first := disp.Frame.Clone()
	// Change control between frames: output changes.
	p.SetControl(128, 0, 0) // 45°
	sim.Tick()
	runFrame(t, sim, p)
	if disp.Frame.Equal(first) {
		t.Fatal("second frame identical despite new control")
	}
	if p.FramesDone() != 2 {
		t.Fatalf("FramesDone = %d", p.FramesDone())
	}
}

func TestPipelineControlLatching(t *testing.T) {
	src := video.Checkerboard(16, 16, 4)
	sim, p, _ := buildPipeline(src)
	p.SetControl(256, 1, 2)
	// Before a tick the control registers still read old values.
	if p.thetaIdx.Q() != 0 {
		t.Fatal("control visible before clock edge")
	}
	sim.Tick()
	if p.thetaIdx.Q() != 256 || p.tx.Q() != 1 || p.ty.Q() != 2 {
		t.Fatal("control not latched at edge")
	}
}

// refPipelineFrame renders what the pipeline must produce for raw
// control values, via the per-pixel reference band.
func refPipelineFrame(ft *FixedTransformer, src *video.Frame, idx, tx, ty int) *video.Frame {
	out := video.NewFrame(src.W, src.H)
	ft.transformBandRef(out, src, idx, src.W/2, src.H/2, tx, ty, 0, src.H)
	return out
}

// TestPipelineMidFrameControlAtomic is the control-skew regression: a
// SetControl written while a frame is in flight must not affect that
// frame at all (previously tx/ty were read at S3 while thetaIdx was
// read at S1, so a mid-frame write produced pixels combining the new
// translation with the old rotation), and must fully apply to the next
// frame.
func TestPipelineMidFrameControlAtomic(t *testing.T) {
	src := video.RoadScene{W: 32, H: 24}.Render()
	ft := NewFixedTransformer(stdLUT())
	sim, p, disp := buildPipeline(src)

	p.SetControl(30, 2, -1)
	sim.Tick()
	p.Start()
	sim.Tick()
	for i := 0; i < 32*24/2; i++ {
		sim.Tick() // half the frame drains
	}
	p.SetControl(128, -3, 5) // Sabre writes mid-frame
	cycles := 0
	for p.Busy() {
		sim.Tick()
		cycles++
		if cycles > 1_000_000 {
			t.Fatal("pipeline never finished")
		}
	}
	if want := refPipelineFrame(ft, src, 30, 2, -1); !disp.Frame.Equal(want) {
		t.Fatal("mid-frame SetControl tore the in-flight frame")
	}

	p.Start()
	sim.Tick()
	for p.Busy() {
		sim.Tick()
	}
	if want := refPipelineFrame(ft, src, 128, -3, 5); !disp.Frame.Equal(want) {
		t.Fatal("new control did not apply cleanly to the next frame")
	}
}

// clockFrame runs one frame through the clocked pipeline without the
// test-only bookkeeping of runFrame.
func clockFrame(sim *hcsim.Sim, p *Pipeline) {
	p.Start()
	sim.Tick()
	for p.Busy() {
		sim.Tick()
	}
}

// TestPipelineFrameAllocFree pins the clocked datapath's steady state
// at zero allocations per QVGA frame.
func TestPipelineFrameAllocFree(t *testing.T) {
	sim, p, _ := buildPipeline(video.RoadScene{W: 320, H: 240}.Render())
	if allocs := testing.AllocsPerRun(3, func() { clockFrame(sim, p) }); allocs != 0 {
		t.Fatalf("%v allocs per clocked QVGA frame, want 0", allocs)
	}
}

func BenchmarkPipelineQVGAFrame(b *testing.B) {
	sim, p, _ := buildPipeline(video.RoadScene{W: 320, H: 240}.Render())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clockFrame(sim, p)
	}
}
