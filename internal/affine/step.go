package affine

import (
	"math"

	"boresight/internal/fixed"
	"boresight/internal/video"
)

// step.go — incremental scanline generation for the frame transforms.
// The inverse map is affine, so each rotation product is linear in the
// output coordinate: a real FPGA address generator steps it with an
// adder per pixel instead of re-multiplying. The software datapath goes
// one step further and exploits that the two column products depend
// only on x: they are computed once per frame into per-column tables,
// leaving the inner loop two table loads, two adds and two
// renormalisations — and, thanks to the analytic span clipper
// (clip.go), no bounds checks.
//
// Bit-exactness with the per-pixel RotateCoord datapath comes from
// accumulating the products at extended (int64) precision — the DDA
// adds are then exact — and renormalising with fixed.RoundShift64,
// which reproduces fixed.Mul's rounding bit for bit (the identity is
// pinned in internal/fixed). The float path keeps the exact IEEE
// operation order of Params.Apply by hoisting the x-only terms
// unchanged, so its output is also bit-identical to the per-pixel form.

// maxStackTabW is the widest frame whose per-column tables fit in
// fixed-size stack arrays. The serial (workers=1) paths use the stack
// so the transforms stay allocation-free; wider frames fall back to
// heap tables (one small allocation per frame, amortised across rows).
const maxStackTabW = 1024

// buildFixedTables fills the per-column rotation products
//
//	t3tab[x] = Mul(FromInt(x-cx), cos)   t4tab[x] = Mul(FromInt(x-cx), sin)
//
// by exact DDA: the int64 accumulators advance by cos/sin per column
// and RoundShift64 renormalises, which equals the Mul bit for bit.
func buildFixedTables(t3tab, t4tab []int32, cx int, sin, cos int32) {
	p3 := int64(-cx) * int64(cos)
	p4 := int64(-cx) * int64(sin)
	for x := range t3tab {
		t3tab[x] = fixed.RoundShift64(p3, fixed.StepShift)
		t4tab[x] = fixed.RoundShift64(p4, fixed.StepShift)
		p3 += int64(cos)
		p4 += int64(sin)
	}
}

// sumsSaturate reports whether any of the two coordinate sums can hit
// 16-bit saturation inside [lo, hi). Both sums are monotone in x, so
// checking the span endpoints suffices; when they stay in range the
// inner loop may use plain adds in place of AddSat (bit-identical).
func sumsSaturate(t3tab, t4tab []int32, t2, t5 int32, lo, hi int) bool {
	for _, s := range [4]int32{t2 + t3tab[lo], t2 + t3tab[hi-1], t4tab[lo] + t5, t4tab[hi-1] + t5} {
		if s > fixed.MaxInt16 || s < fixed.MinInt16 {
			return true
		}
	}
	return false
}

// transformFixedSerial is the workers=1 nearest-neighbour path with the
// per-column tables on the stack. It must stay free of closures: a
// closure capturing the arrays would force them (and the serial path's
// zero-allocation guarantee) onto the heap.
func transformFixedSerial(dst, src *video.Frame, sin, cos int32, cx, cy, tx, ty int) {
	var t3buf, t4buf [maxStackTabW]int32
	t3tab, t4tab := t3buf[:src.W], t4buf[:src.W]
	buildFixedTables(t3tab, t4tab, cx, sin, cos)
	steppedFixedBand(dst, src, t3tab, t4tab, sin, cos, cy, cx+tx, cy+ty, 0, src.H)
}

// steppedFixedBand renders rows [y0, y1) of the fixed-point
// nearest-neighbour transform. Per row: renormalise the two row
// accumulators, clip the in-frame span analytically, black-fill
// outside it, and run a load/add/renormalise inner loop with no bounds
// checks inside it. Bit-identical to RotateCoord per pixel.
func steppedFixedBand(dst, src *video.Frame, t3tab, t4tab []int32, sin, cos int32, cy, cxt, cyt, y0, y1 int) {
	w, h := src.W, src.H
	spix := src.Pix
	// Row accumulators: q2(y) = (y−cy)·(−sin), q5(y) = (y−cy)·cos,
	// exact in int64, stepped by −sin/+cos per row.
	q2 := int64(y0-cy) * int64(-sin)
	q5 := int64(y0-cy) * int64(cos)
	for y := y0; y < y1; y++ {
		t2 := fixed.RoundShift64(q2, fixed.StepShift)
		t5 := fixed.RoundShift64(q5, fixed.StepShift)
		lo, hi := fixedRowSpan(t3tab, t4tab, t2, t5, cxt, cyt, w, h)
		drow := dst.Pix[y*w : y*w+w]
		clear(drow[:lo])
		clear(drow[hi:])
		if lo < hi && !sumsSaturate(t3tab, t4tab, t2, t5, lo, hi) {
			// Both coordinate sums are monotone across the span, so
			// each changes sign at most once; between crossings the
			// ties-away rounding of ToInt is a constant-bias shift —
			// (S+32)>>CoordFrac for S ≥ 0, (S+31)>>CoordFrac for S < 0
			// — and the centre+translation offset folds into the bias
			// (it is a whole multiple of the LSB). Each segment's inner
			// loop is then two adds and two shifts per pixel.
			sa := splitSign(t3tab, t2, lo, hi)
			sb := splitSign(t4tab, t5, lo, hi)
			if sa > sb {
				sa, sb = sb, sa
			}
			fixedFastSegment(drow, spix, t3tab, t4tab, t2, t5, cxt, cyt, w, lo, sa)
			fixedFastSegment(drow, spix, t3tab, t4tab, t2, t5, cxt, cyt, w, sa, sb)
			fixedFastSegment(drow, spix, t3tab, t4tab, t2, t5, cxt, cyt, w, sb, hi)
		} else {
			for x := lo; x < hi; x++ {
				sx := fixed.ToInt(fixed.AddSat(t2, t3tab[x]), fixed.CoordFrac) + cxt
				sy := fixed.ToInt(fixed.AddSat(t4tab[x], t5), fixed.CoordFrac) + cyt
				drow[x] = spix[sy*w+sx]
			}
		}
		q2 -= int64(sin)
		q5 += int64(cos)
	}
}

// fixedFastSegment renders columns [x0, x1) of one row under the fast
// preconditions established by steppedFixedBand: no saturation anywhere
// in the segment and a constant sign for each coordinate sum, sampled
// at the first column. ToInt's ties-away-from-zero rounding then equals
// a floor shift with bias 32 (S ≥ 0) or 31 (S < 0) — for negative S,
// −((−S+32)>>f) = (S+31)>>f — and the centre+translation offset is
// pre-shifted into the bias, making the per-pixel work two adds and two
// arithmetic shifts. Bit-identical to the guarded loop.
func fixedFastSegment(drow, spix []video.Pixel, t3tab, t4tab []int32, t2, t5 int32, cxt, cyt, w, x0, x1 int) {
	if x0 >= x1 {
		return
	}
	const halfUp = int32(1) << (fixed.CoordFrac - 1)
	b2 := t2 + halfUp + int32(cxt)<<fixed.CoordFrac
	if t2+t3tab[x0] < 0 {
		b2--
	}
	b5 := t5 + halfUp + int32(cyt)<<fixed.CoordFrac
	if t5+t4tab[x0] < 0 {
		b5--
	}
	for x := x0; x < x1; x++ {
		sx := int(b2+t3tab[x]) >> fixed.CoordFrac
		sy := int(b5+t4tab[x]) >> fixed.CoordFrac
		drow[x] = spix[sy*w+sx]
	}
}

// buildFloatTables hoists the x-only halves of Params.Apply:
//
//	tabX[x] = cx + c·(x−cx)    tabY[x] = cy + s·(x−cx)
//
// computed with the exact expressions (and therefore the exact IEEE
// results) the per-pixel form produces.
func buildFloatTables(tabX, tabY []float64, cx, cy, c, s float64) {
	for x := range tabX {
		dx := float64(x) - cx
		tabX[x] = cx + c*dx
		tabY[x] = cy + s*dx
	}
}

// transformFloatSerial is the workers=1 float path with stack tables;
// closure-free for the same escape-analysis reason as its fixed twin.
func transformFloatSerial(dst, src *video.Frame, inv Params, cx, cy float64, bilinear bool) {
	c, s := math.Cos(inv.Theta), math.Sin(inv.Theta)
	var xbuf, ybuf [maxStackTabW]float64
	tabX, tabY := xbuf[:src.W], ybuf[:src.W]
	buildFloatTables(tabX, tabY, cx, cy, c, s)
	steppedFloatBand(dst, src, tabX, tabY, c, s, cy, inv.TX, inv.TY, bilinear, 0, src.H)
}

// steppedFloatBand renders rows [y0, y1) of the float transform from
// hoisted column tables. The per-pixel coordinate is
//
//	sx = (tabX[x] + (−s·dy)) + TX    sy = (tabY[x] + c·dy) + TY
//
// which is bit-identical to Params.Apply (IEEE a−b ≡ a+(−b)); what the
// hoisting actually removes is the per-pixel math.Cos/math.Sin pair and
// two multiplies. Nearest-neighbour rows are span-clipped with black
// fills; bilinear rows split into a tap-safe interior with direct
// unguarded taps and guarded sampleBilinear edges.
func steppedFloatBand(dst, src *video.Frame, tabX, tabY []float64, c, s, cy, tx, ty float64, bilinear bool, y0, y1 int) {
	w, h := src.W, src.H
	spix := src.Pix
	for y := y0; y < y1; y++ {
		dy := float64(y) - cy
		rtX := -(s * dy)
		rtY := c * dy
		drow := dst.Pix[y*w : y*w+w]
		if bilinear {
			loX, hiX := floatSpanFloor(tabX, rtX, tx, w-1)
			loY, hiY := floatSpanFloor(tabY, rtY, ty, h-1)
			lo, hi := max(loX, loY), min(hiX, hiY)
			if hi < lo {
				hi = lo
			}
			for x := 0; x < lo; x++ {
				drow[x] = sampleBilinear(src, (tabX[x]+rtX)+tx, (tabY[x]+rtY)+ty)
			}
			for x := hi; x < w; x++ {
				drow[x] = sampleBilinear(src, (tabX[x]+rtX)+tx, (tabY[x]+rtY)+ty)
			}
			for x := lo; x < hi; x++ {
				sx := (tabX[x] + rtX) + tx
				sy := (tabY[x] + rtY) + ty
				xf, yf := math.Floor(sx), math.Floor(sy)
				i := int(yf)*w + int(xf)
				drow[x] = blendBilinear(spix[i], spix[i+1], spix[i+w], spix[i+w+1], sx-xf, sy-yf)
			}
		} else {
			loX, hiX := floatSpan(tabX, rtX, tx, w)
			loY, hiY := floatSpan(tabY, rtY, ty, h)
			lo, hi := max(loX, loY), min(hiX, hiY)
			if hi < lo {
				hi = lo
			}
			clear(drow[:lo])
			clear(drow[hi:])
			for x := lo; x < hi; x++ {
				sx := (tabX[x] + rtX) + tx
				sy := (tabY[x] + rtY) + ty
				drow[x] = spix[int(math.Round(sy))*w+int(math.Round(sx))]
			}
		}
	}
}
