package affine

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/geom"
	"boresight/internal/video"
)

// step_test.go — differential proofs that the incremental scanline
// datapath (step.go) is bit-identical to the per-pixel reference forms
// it replaced: transformBandRef (one RotateCoord per pixel) and
// transformFloatBandRef (one Params.Apply per pixel).

func testScene(w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	rng := rand.New(rand.NewSource(42))
	for i := range f.Pix {
		f.Pix[i] = video.Pixel(rng.Uint32() & 0x00FFFFFF)
	}
	return f
}

// TestSteppedFixedFullLUTRange proves the fixed-point stepped band
// equals the per-pixel RotateCoord band at every one of the 1024 LUT
// indices, for translations inside the frame, past both edges, and far
// enough out that every row degenerates to all-black.
func TestSteppedFixedFullLUTRange(t *testing.T) {
	const w, h = 48, 36
	src := testScene(w, h)
	ft := NewFixedTransformer(stdLUT())
	cx, cy := w/2, h/2
	ref := video.NewFrame(w, h)
	got := video.NewFrame(w, h)
	t3tab := make([]int32, w)
	t4tab := make([]int32, w)
	translations := [][2]int{{0, 0}, {7, -3}, {-w - 5, 2}, {3, h + 9}, {2 * w, -2 * h}}
	for idx := 0; idx < ft.LUT().Size(); idx++ {
		sin, cos := ft.LUT().SinIdx(idx), ft.LUT().CosIdx(idx)
		buildFixedTables(t3tab, t4tab, cx, sin, cos)
		for _, tr := range translations {
			tx, ty := tr[0], tr[1]
			ft.transformBandRef(ref, src, idx, cx, cy, tx, ty, 0, h)
			steppedFixedBand(got, src, t3tab, t4tab, sin, cos, cy, cx+tx, cy+ty, 0, h)
			if !got.Equal(ref) {
				t.Fatalf("stepped fixed band diverges from RotateCoord at idx=%d tx=%d ty=%d", idx, tx, ty)
			}
		}
	}
}

// TestSteppedFixedSaturation drives coordinates into 16-bit saturation
// (|x−cx| near the Q9.6 limit) so the careful AddSat loop and the
// saturation plateaus of the span clipper are exercised, on the heap-
// table path (width beyond the stack-table bound).
func TestSteppedFixedSaturation(t *testing.T) {
	const w, h = maxStackTabW + 16, 8
	src := testScene(w, h)
	ft := NewFixedTransformer(stdLUT())
	cx, cy := w/2, h/2
	ref := video.NewFrame(w, h)
	got := video.NewFrame(w, h)
	t3tab := make([]int32, w)
	t4tab := make([]int32, w)
	for _, idx := range []int{1, 17, 255, 256, 511, 513, 767, 1023} {
		sin, cos := ft.LUT().SinIdx(idx), ft.LUT().CosIdx(idx)
		buildFixedTables(t3tab, t4tab, cx, sin, cos)
		for _, tr := range [][2]int{{0, 0}, {-300, 100}} {
			tx, ty := tr[0], tr[1]
			ft.transformBandRef(ref, src, idx, cx, cy, tx, ty, 0, h)
			steppedFixedBand(got, src, t3tab, t4tab, sin, cos, cy, cx+tx, cy+ty, 0, h)
			if !got.Equal(ref) {
				t.Fatalf("stepped fixed band diverges under saturation at idx=%d tx=%d ty=%d", idx, tx, ty)
			}
		}
	}
}

// TestTransformIntoMatchesReference checks the public entry point
// (including parameter inversion and worker banding) against the
// reference band across angles and frame shapes, including odd sizes
// and a single-row frame.
func TestTransformIntoMatchesReference(t *testing.T) {
	ft := NewFixedTransformer(stdLUT())
	shapes := [][2]int{{64, 48}, {33, 25}, {1, 1}, {5, 1}, {1, 7}}
	for _, sh := range shapes {
		src := testScene(sh[0], sh[1])
		for _, p := range []Params{
			{},
			{Theta: geom.Deg2Rad(3.3), TX: 4, TY: -2},
			{Theta: geom.Deg2Rad(-120), TX: -9.7, TY: 3.2},
			{Theta: geom.Deg2Rad(91), TX: 0.4, TY: -0.4},
		} {
			inv := p.Invert()
			idx := ft.LUT().Index(inv.Theta)
			tx := int(math.Round(inv.TX))
			ty := int(math.Round(inv.TY))
			ref := video.NewFrame(src.W, src.H)
			ft.transformBandRef(ref, src, idx, src.W/2, src.H/2, tx, ty, 0, src.H)
			for _, workers := range []int{1, 3} {
				got := ft.TransformWorkers(src, p, workers)
				if !got.Equal(ref) {
					t.Fatalf("TransformWorkers(%dx%d, %+v, workers=%d) diverges from reference",
						src.W, src.H, p, workers)
				}
			}
		}
	}
}

// TestSteppedFloatMatchesReference proves the hoisted float datapath —
// nearest-neighbour and bilinear — reproduces the per-pixel
// Params.Apply form bit for bit.
func TestSteppedFloatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{64, 48}, {33, 25}, {1, 6}}
	for _, sh := range shapes {
		src := testScene(sh[0], sh[1])
		params := []Params{
			{},
			{Theta: geom.Deg2Rad(3.3), TX: 4, TY: -2},
			{Theta: math.Pi / 2, TX: 0.25, TY: -0.75},
			{Theta: geom.Deg2Rad(180), TX: float64(src.W), TY: 0},
		}
		for i := 0; i < 12; i++ {
			params = append(params, Params{
				Theta: (rng.Float64() - 0.5) * 4 * math.Pi,
				TX:    (rng.Float64() - 0.5) * 3 * float64(src.W),
				TY:    (rng.Float64() - 0.5) * 3 * float64(src.H),
			})
		}
		for _, p := range params {
			inv := p.Invert()
			cx, cy := float64(src.W)/2, float64(src.H)/2
			for _, bilinear := range []bool{false, true} {
				ref := video.NewFrame(src.W, src.H)
				transformFloatBandRef(ref, src, inv, cx, cy, bilinear, 0, src.H)
				for _, workers := range []int{1, 3} {
					got := TransformFloatWorkers(src, p, bilinear, workers)
					if !got.Equal(ref) {
						t.Fatalf("TransformFloatWorkers(%dx%d, %+v, bilinear=%v, workers=%d) diverges",
							src.W, src.H, p, bilinear, workers)
					}
				}
			}
		}
	}
}

// refForwardMap is the pre-rewrite per-pixel forward mapping, kept as
// the oracle for the span-clipped scatter.
func refForwardMap(ft *FixedTransformer, src *video.Frame, p Params) (*video.Frame, int) {
	out := video.NewFrame(src.W, src.H)
	written := make([]bool, src.W*src.H)
	idx := ft.LUT().Index(p.Theta)
	tx := int(math.Round(p.TX))
	ty := int(math.Round(p.TY))
	cx, cy := src.W/2, src.H/2
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			ox, oy := ft.RotateCoord(idx, x, y, cx, cy, tx, ty)
			if ox >= 0 && ox < src.W && oy >= 0 && oy < src.H {
				out.Set(ox, oy, src.At(x, y))
				written[oy*src.W+ox] = true
			}
		}
	}
	holes := 0
	for _, w := range written {
		if !w {
			holes++
		}
	}
	return out, holes
}

func TestForwardMapMatchesReference(t *testing.T) {
	ft := NewFixedTransformer(stdLUT())
	src := testScene(48, 36)
	for _, p := range []Params{
		{},
		{Theta: geom.Deg2Rad(7), TX: 3, TY: -1},
		{Theta: geom.Deg2Rad(-33), TX: -60, TY: 10},
		{Theta: geom.Deg2Rad(121), TX: 200, TY: -200},
	} {
		wantFrame, wantHoles := refForwardMap(ft, src, p)
		gotFrame, gotHoles := ft.ForwardMap(src, p)
		if gotHoles != wantHoles || !gotFrame.Equal(wantFrame) {
			t.Fatalf("ForwardMap(%+v) diverges: holes %d want %d", p, gotHoles, wantHoles)
		}
	}
}

// TestStepAllocFree pins the zero-allocation guarantees of
// ForwardMapInto with caller-owned buffers and of the closure-free
// sampleBilinear.
func TestStepAllocFree(t *testing.T) {
	ft := NewFixedTransformer(stdLUT())
	src := testScene(64, 48)
	dst := video.NewFrame(64, 48)
	written := make([]bool, 64*48)
	p := Params{Theta: geom.Deg2Rad(3.3), TX: 4, TY: -2}
	if n := testing.AllocsPerRun(10, func() {
		ft.ForwardMapInto(dst, written, src, p)
	}); n != 0 {
		t.Fatalf("ForwardMapInto allocates %v per run", n)
	}
	var sink video.Pixel
	if n := testing.AllocsPerRun(10, func() {
		sink = sampleBilinear(src, 12.3, 7.8)
	}); n != 0 {
		t.Fatalf("sampleBilinear allocates %v per run", n)
	}
	_ = sink
}
