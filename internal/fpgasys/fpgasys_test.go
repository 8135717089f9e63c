package fpgasys

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"boresight/internal/affine"
	"boresight/internal/fixed"
	"boresight/internal/geom"
	"boresight/internal/link"
	"boresight/internal/video"
)

func testConfig(w, h int) Config {
	scene := video.Checkerboard(w, h, 8)
	return Config{
		W: w, H: h,
		Source: func(int) *video.Frame { return scene },
	}
}

func accPacketBytes(t1x, t1y, t2 uint16) []byte {
	return link.EncodeACC(link.ACCPacket{T1X: t1x, T1Y: t1y, T2: t2})
}

func TestSystemBoots(t *testing.T) {
	s, err := New(testConfig(32, 24))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	if s.CPUInstructions() == 0 {
		t.Fatal("control program did not execute")
	}
	if s.VideoIn.FramesCaptured() == 0 {
		t.Fatal("video capture never completed a frame")
	}
	// No solution yet: WaitForSabre holds output.
	if s.OutputFrames() != 0 {
		t.Fatal("output started before a valid solution")
	}
}

func TestSerialBytesArriveAtLineRate(t *testing.T) {
	s, err := New(testConfig(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	pkt := accPacketBytes(100, 200, 4096)
	s.SendACC(pkt)
	// At 57600 baud one byte needs 10/57600 s = ~4340 cycles at 25 MHz;
	// after 2000 cycles nothing can have arrived and been counted.
	if err := s.Run(2000); err != nil {
		t.Fatal(err)
	}
	if got := s.CPU.LoadWord(0x3C); got != 0 {
		t.Fatalf("packet parsed impossibly early (count %d)", got)
	}
	// After 8 byte-times plus processing slack the packet is in.
	if err := s.Run(8*4340 + 20000); err != nil {
		t.Fatal(err)
	}
	if got := s.CPU.LoadWord(0x3C); got != 1 {
		t.Fatalf("ACC packet count = %d", got)
	}
	if got := s.CPU.LoadWord(0x24); got != 100 {
		t.Fatalf("parsed t1x = %d", got)
	}
}

func TestEndToEndCorrectedFrame(t *testing.T) {
	w, h := 32, 24
	cfg := testConfig(w, h)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The "Kalman task" deposits a solution: rotate via LUT index 32
	// (11.25°), shift (2, -1).
	idx, tx, ty := int32(32), int32(2), int32(-1)
	s.DepositSolution(6554, idx, tx, ty) // 0.1 rad in S16.16

	// Run long enough for: solution load (+ctl write), a capture frame
	// (w*h cycles), swap, and one output frame.
	if err := s.Run(30000 + 4*w*h); err != nil {
		t.Fatal(err)
	}
	if !s.Ctl.Valid() {
		t.Fatal("control block never validated")
	}
	if s.OutputFrames() == 0 {
		t.Fatal("no corrected frame produced")
	}

	// The displayed frame must equal the pure fixed-point transform
	// with the same control values applied to the source.
	lut := fixed.NewTrig(1024, fixed.TrigFrac)
	ft := affine.NewFixedTransformer(lut)
	src := cfg.Source(0)
	want := video.NewFrame(w, h)
	cx, cy := w/2, h/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx, sy := ft.RotateCoord(int(idx), x, y, cx, cy, int(tx), int(ty))
			want.Set(x, y, src.At(sx, sy))
		}
	}
	if !s.Display.Frame.Equal(want) {
		t.Fatal("co-simulated output differs from reference transform")
	}
}

func TestSolutionUpdateMidStream(t *testing.T) {
	w, h := 16, 16
	s, err := New(testConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	s.DepositSolution(0, 0, 0, 0) // identity
	if err := s.Run(20000 + 4*w*h); err != nil {
		t.Fatal(err)
	}
	first := s.Display.Frame.Clone()
	firstFrames := s.OutputFrames()
	if firstFrames == 0 {
		t.Fatal("no identity frame")
	}
	// New solution: 90° rotation (LUT index 256).
	s.DepositSolution(0, 256, 0, 0)
	if err := s.Run(30000 + 6*w*h); err != nil {
		t.Fatal(err)
	}
	if s.OutputFrames() <= firstFrames {
		t.Fatal("no further frames after solution update")
	}
	if s.Display.Frame.Equal(first) {
		t.Fatal("output unchanged after new solution")
	}
	if s.Ctl.Seq() != 2 {
		t.Fatalf("control seq = %d, want 2", s.Ctl.Seq())
	}
}

func TestContinuousFrameRate(t *testing.T) {
	w, h := 32, 24
	s, err := New(testConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	s.DepositSolution(0, 0, 0, 0)
	// Let it run for ~20 frame times; the output rate should approach
	// one output frame per capture frame (capture dominates at 1
	// pixel/cycle each).
	cycles := 20 * w * h * 2
	if err := s.Run(20000 + cycles); err != nil {
		t.Fatal(err)
	}
	if s.OutputFrames() < 5 {
		t.Fatalf("only %d output frames in %d cycles", s.OutputFrames(), cycles)
	}
	if s.Buffers.Swaps() < s.OutputFrames() {
		t.Fatalf("swaps %d < output frames %d", s.Buffers.Swaps(), s.OutputFrames())
	}
}

func TestDMUPacketThroughSystem(t *testing.T) {
	s, err := New(testConfig(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	frame := link.EncodeDMUAccels(3, geom.Vec3{1.0, -2.0, -9.8})
	s.SendDMU(link.BridgeEncode(frame))
	// 15 bytes at ~4340 cycles each plus slack.
	if err := s.Run(15*4340 + 40000); err != nil {
		t.Fatal(err)
	}
	if got := s.CPU.LoadWord(0x40); got != 1 {
		t.Fatalf("DMU frame count = %d", got)
	}
	ax := int32(s.CPU.LoadWord(0x30))
	if ax != 1000 { // 1.0 m/s² at 1 mm/s² LSB
		t.Fatalf("parsed ax = %d", ax)
	}
}

// TestCoSimGoldenCRC pins the whole chip's cycle-level behaviour: the
// Sabre's timing and architectural state, the serial lines, capture,
// the double-buffer swaps, the pipeline's SRAM traffic and the
// displayed frame, all on one clock. A run with sensor bytes arriving
// at line rate and a second solution deposited while a frame is in
// flight is folded into one CRC-32; any change to when any component
// sees any other component's state moves it.
func TestCoSimGoldenCRC(t *testing.T) {
	const w, h = 24, 16
	// Two alternating scenes, so which bank the pipeline reads at each
	// swap shows in the displayed frame.
	scenes := []*video.Frame{
		video.RoadScene{W: w, H: h}.Render(),
		video.RoadScene{W: w, H: h, LaneOffset: 5}.Render(),
	}
	s, err := New(Config{
		W: w, H: h,
		Source: func(n int) *video.Frame { return scenes[n%2] },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SendACC(accPacketBytes(100, 200, 4096))
	s.SendDMU(link.BridgeEncode(link.EncodeDMUAccels(3, geom.Vec3{1.0, -2.0, -9.8})))
	s.SendACC(accPacketBytes(2100, 1900, 4000))
	s.DepositSolution(6554, 32, 2, -1)
	if err := s.Run(40000); err != nil {
		t.Fatal(err)
	}
	s.DepositSolution(-3277, 1000, -3, 2)
	for i := 0; s.Ctl.Seq() != 2; i++ {
		if i == 10000 {
			t.Fatal("second solution never reached the control block")
		}
		if err := s.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Pipeline.Busy() {
		t.Fatal("second solution did not land while a frame was in flight")
	}
	if err := s.Run(30000); err != nil {
		t.Fatal(err)
	}
	if s.OutputFrames() < 10 || s.CPU.LoadWord(0x3C) != 2 || s.CPU.LoadWord(0x40) != 1 {
		t.Fatalf("run too short to pin: %d output frames, %d ACC and %d DMU packets parsed",
			s.OutputFrames(), s.CPU.LoadWord(0x3C), s.CPU.LoadWord(0x40))
	}

	crc := crc32.NewIEEE()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			crc.Write(b[:])
		}
	}
	put(s.Sim.Cycle(), s.CPU.Cycles, s.CPU.Instret, uint64(s.CPU.PC))
	for _, r := range s.CPU.R {
		put(uint64(r))
	}
	r1, w1 := s.RAM1.Stats()
	r2, w2 := s.RAM2.Stats()
	put(s.OutputFrames(), s.Buffers.Swaps(), s.VideoIn.FramesCaptured(),
		r1, w1, r2, w2, s.Pipeline.BlackPixels(), uint64(s.Ctl.Seq()))
	for _, p := range s.Display.Frame.Pix {
		put(uint64(p))
	}
	const want = 0x54b77e17
	if got := crc.Sum32(); got != want {
		t.Fatalf("co-simulation CRC %#08x, want %#08x", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func BenchmarkSystemCycle(b *testing.B) {
	s, err := New(testConfig(32, 24))
	if err != nil {
		b.Fatal(err)
	}
	s.DepositSolution(0, 16, 1, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}
