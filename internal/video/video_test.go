package video

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestPixelPackUnpack(t *testing.T) {
	p := RGB(0x12, 0x34, 0x56)
	if p.R() != 0x12 || p.G() != 0x34 || p.B() != 0x56 {
		t.Fatalf("pack/unpack = %x %x %x", p.R(), p.G(), p.B())
	}
}

// Property via testing/quick: any RGB triple round-trips.
func TestPixelQuick(t *testing.T) {
	f := func(r, g, b uint8) bool {
		p := RGB(r, g, b)
		return p.R() == r && p.G() == g && p.B() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBounds(t *testing.T) {
	f := NewFrame(4, 3)
	f.Set(2, 1, RGB(1, 2, 3))
	if f.At(2, 1) != RGB(1, 2, 3) {
		t.Fatal("Set/At broken")
	}
	// Out of bounds reads are black, writes dropped.
	if f.At(-1, 0) != 0 || f.At(4, 0) != 0 || f.At(0, 3) != 0 {
		t.Fatal("OOB read not black")
	}
	f.Set(99, 99, RGB(9, 9, 9)) // must not panic
}

func TestNewFrameValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0x0 frame accepted")
		}
	}()
	NewFrame(0, 5)
}

func TestCloneAndEqualAndFill(t *testing.T) {
	f := NewFrame(3, 3)
	f.Fill(RGB(5, 6, 7))
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Set(0, 0, 0)
	if f.Equal(g) {
		t.Fatal("Equal missed difference")
	}
	if f.Equal(NewFrame(3, 4)) {
		t.Fatal("Equal ignored size")
	}
}

func TestWritePPMBytes(t *testing.T) {
	f := NewFrame(2, 1)
	f.Set(0, 0, RGB(0x12, 0x34, 0x56))
	f.Set(1, 0, RGB(0xFF, 0x00, 0x0A))
	var buf bytes.Buffer
	if err := f.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	want := "P6\n2 1\n255\n\x12\x34\x56\xff\x00\x0a"
	if got := buf.String(); got != want {
		t.Fatalf("WritePPM = %q, want %q", got, want)
	}
}

func TestRoadSceneStructure(t *testing.T) {
	f := RoadScene{W: 160, H: 120}.Render()
	// Sky at the top.
	if f.At(80, 5) != skyColor {
		t.Fatalf("top pixel = %x", f.At(80, 5))
	}
	// Road in the centre bottom.
	if got := f.At(80, 110); got != roadColor && got != laneColor {
		t.Fatalf("bottom centre = %x", got)
	}
	// Grass at the bottom corners.
	if f.At(2, 118) != grassColor || f.At(157, 118) != grassColor {
		t.Fatal("no grass at corners")
	}
	// There must be lane-marking pixels.
	lane := 0
	for _, p := range f.Pix {
		if p == laneColor {
			lane++
		}
	}
	if lane < 20 {
		t.Fatalf("only %d lane pixels", lane)
	}
}

func TestRoadSceneOffsetMovesLane(t *testing.T) {
	a := RoadScene{W: 160, H: 120}.Render()
	b := RoadScene{W: 160, H: 120, LaneOffset: 20}.Render()
	if a.Equal(b) {
		t.Fatal("lane offset had no effect")
	}
}

func TestCheckerboard(t *testing.T) {
	f := Checkerboard(32, 32, 8)
	if f.At(0, 0) != RGB(255, 255, 255) {
		t.Fatal("origin not white")
	}
	if f.At(8, 0) != RGB(0, 0, 0) {
		t.Fatal("second cell not black")
	}
	if f.At(8, 8) != RGB(255, 255, 255) {
		t.Fatal("diagonal cell not white")
	}
}

func TestPSNR(t *testing.T) {
	f := Checkerboard(16, 16, 4)
	if !math.IsInf(PSNR(f, f), 1) {
		t.Fatal("identical frames not +Inf")
	}
	g := f.Clone()
	g.Set(0, 0, RGB(254, 254, 254)) // tiny change
	h := f.Clone()
	for i := range h.Pix {
		h.Pix[i] ^= 0x00FFFFFF // invert: massive change
	}
	if PSNR(f, g) <= PSNR(f, h) {
		t.Fatal("PSNR ordering wrong")
	}
	if PSNR(f, h) > 10 {
		t.Fatalf("inverted PSNR = %v suspiciously high", PSNR(f, h))
	}
}

func TestMeanAbsDiff(t *testing.T) {
	f := NewFrame(2, 2)
	g := NewFrame(2, 2)
	g.Fill(RGB(10, 20, 30))
	want := (10.0 + 20 + 30) / 3
	if got := MeanAbsDiff(f, g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanAbsDiff = %v, want %v", got, want)
	}
	if MeanAbsDiff(f, f) != 0 {
		t.Fatal("self diff nonzero")
	}
}

func TestMetricSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	PSNR(NewFrame(2, 2), NewFrame(3, 3))
}

func BenchmarkRoadSceneRender(b *testing.B) {
	s := RoadScene{W: 320, H: 240}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Render()
	}
}
