package affine

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/fixed"
)

// clip_test.go — property tests for the analytic span clippers: for
// every LUT index and for translations inside, past, and far beyond
// both frame edges, the clipped interval must equal the brute-force
// in-range mask computed with the inner loop's own arithmetic —
// including degenerate rows where no column is in range.

// checkInterval asserts that the brute-force membership mask given by
// inRange matches the half-open interval [lo, hi).
func checkInterval(t *testing.T, n, lo, hi int, inRange func(x int) bool, ctx string) {
	t.Helper()
	for x := 0; x < n; x++ {
		want := x >= lo && x < hi
		if got := inRange(x); got != want {
			t.Fatalf("%s: span [%d,%d) wrong at x=%d: brute force %v", ctx, lo, hi, x, got)
		}
	}
}

// TestFixedRowSpanFullLUTSweep sweeps all 1024 LUT indices × edge-
// crossing translations × sample rows and checks fixedRowSpan against
// brute force on both axes jointly.
func TestFixedRowSpanFullLUTSweep(t *testing.T) {
	const w, h = 48, 36
	lut := stdLUT()
	cx, cy := w/2, h/2
	t3tab := make([]int32, w)
	t4tab := make([]int32, w)
	translations := [][2]int{
		{0, 0},          // interior
		{-w - 3, 0},     // past the left edge
		{w + 3, 0},      // past the right edge
		{0, -h - 2},     // past the top
		{0, h + 2},      // past the bottom
		{3 * w, -3 * h}, // far out: every row degenerate
	}
	rows := []int{0, 1, h / 2, h - 1}
	for idx := 0; idx < lut.Size(); idx++ {
		sin, cos := lut.SinIdx(idx), lut.CosIdx(idx)
		buildFixedTables(t3tab, t4tab, cx, sin, cos)
		for _, tr := range translations {
			cxt, cyt := cx+tr[0], cy+tr[1]
			for _, y := range rows {
				t2 := fixed.RoundShift64(int64(y-cy)*int64(-sin), fixed.StepShift)
				t5 := fixed.RoundShift64(int64(y-cy)*int64(cos), fixed.StepShift)
				lo, hi := fixedRowSpan(t3tab, t4tab, t2, t5, cxt, cyt, w, h)
				checkInterval(t, w, lo, hi, func(x int) bool {
					sx := fixed.ToInt(fixed.AddSat(t2, t3tab[x]), fixed.CoordFrac) + cxt
					sy := fixed.ToInt(fixed.AddSat(t4tab[x], t5), fixed.CoordFrac) + cyt
					return sx >= 0 && sx < w && sy >= 0 && sy < h
				}, "fixedRowSpan")
			}
		}
	}
}

// TestFixedSpanSaturationPlateaus feeds the clipper synthetic monotone
// tables whose saturating sums clamp to constant plateaus at both ends
// — the regime a real frame only reaches at extreme coordinates — in
// both directions, against brute force.
func TestFixedSpanSaturationPlateaus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		tab := make([]int32, n)
		v := int32(rng.Intn(120000) - 60000)
		for i := range tab {
			tab[i] = v
			v += int32(rng.Intn(4000))
		}
		if trial%2 == 1 {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				tab[i], tab[j] = tab[j], tab[i]
			}
		}
		rowTerm := int32(rng.Intn(80000) - 40000)
		off := rng.Intn(200) - 100
		limit := 1 + rng.Intn(100)
		lo, hi := fixedSpan(tab, rowTerm, off, limit)
		checkInterval(t, n, lo, hi, func(x int) bool {
			c := fixed.ToInt(fixed.AddSat(rowTerm, tab[x]), fixed.CoordFrac) + off
			return c >= 0 && c < limit
		}, "fixedSpan synthetic")
	}
}

// TestFloatSpanSweep checks the float clippers (round and floor
// variants) against brute force across all LUT-grid angles and edge-
// crossing translations.
func TestFloatSpanSweep(t *testing.T) {
	const w, h = 48, 36
	cx, cy := float64(w)/2, float64(h)/2
	tabX := make([]float64, w)
	tabY := make([]float64, w)
	translations := []float64{0, 0.5, -float64(w) - 2.25, float64(w) + 2.25, 5 * w}
	rows := []int{0, h / 2, h - 1}
	for idx := 0; idx < 1024; idx++ {
		theta := 2 * math.Pi * float64(idx) / 1024
		c, s := math.Cos(theta), math.Sin(theta)
		buildFloatTables(tabX, tabY, cx, cy, c, s)
		for _, tr := range translations {
			for _, y := range rows {
				dy := float64(y) - cy
				rtX := -(s * dy)
				lo, hi := floatSpan(tabX, rtX, tr, w)
				checkInterval(t, w, lo, hi, func(x int) bool {
					r := math.Round((tabX[x] + rtX) + tr)
					return r >= 0 && r < float64(w)
				}, "floatSpan")
				loF, hiF := floatSpanFloor(tabX, rtX, tr, w-1)
				checkInterval(t, w, loF, hiF, func(x int) bool {
					f := math.Floor((tabX[x] + rtX) + tr)
					return f >= 0 && f < float64(w-1)
				}, "floatSpanFloor")
			}
		}
	}
}

// TestSplitSign checks the sign-crossing search used by the fast fixed
// segments: on random monotone tables the returned index must be the
// exact first sign change after lo (or hi when the sign is constant).
func TestSplitSign(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(48)
		tab := make([]int32, n)
		v := int32(rng.Intn(2000) - 1000)
		for i := range tab {
			tab[i] = v
			step := int32(rng.Intn(100))
			if trial%2 == 0 {
				v += step
			} else {
				v -= step
			}
		}
		rowTerm := int32(rng.Intn(2000) - 1000)
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		got := splitSign(tab, rowTerm, lo, hi)
		want := hi
		neg := rowTerm+tab[lo] < 0
		for x := lo + 1; x < hi; x++ {
			if (rowTerm+tab[x] < 0) != neg {
				want = x
				break
			}
		}
		if got != want {
			t.Fatalf("splitSign(lo=%d, hi=%d) = %d, want %d", lo, hi, got, want)
		}
	}
}
