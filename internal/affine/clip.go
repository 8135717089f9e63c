package affine

import (
	"math"

	"boresight/internal/fixed"
)

// clip.go — analytic span clipping for the incremental scanline
// datapath (step.go). For an affine inverse map the source coordinate
// along an output row is a rounded monotone function of the column, so
// the set of columns whose source lands inside the frame is a single
// half-open interval per axis. The clipper recovers that interval
// *exactly* — by binary search over the very same arithmetic the inner
// loop performs, never by solving a real-valued inequality — so the
// clipped interior matches the brute-force in-range mask bit for bit,
// including saturated coordinates and degenerate all-out-of-frame rows.
// Inside the interval the inner loop needs no bounds checks at all;
// outside it the row is plain black fill (the hardware's treatment of
// out-of-window sources).
//
// Every search is written without closures: the clippers run once per
// scanline inside the zero-allocation transform paths, and a captured
// closure that escaped would cost a heap allocation per row.

// fixedSpan returns the half-open interval [lo, hi) ⊆ [0, len(tab)) of
// output columns x whose nearest-neighbour source coordinate
//
//	coord(x) = ToInt(AddSat(rowTerm, tab[x]), CoordFrac) + off
//
// lies inside [0, limit). tab is a table of rounded linear products
// (see buildFixedTables), hence monotone; saturation and rounding
// preserve monotonicity, which is what licenses the binary searches.
func fixedSpan(tab []int32, rowTerm int32, off, limit int) (lo, hi int) {
	n := len(tab)
	if n == 0 {
		return 0, 0
	}
	if tab[n-1] >= tab[0] {
		// coord nondecreasing: the interval is [first x with coord ≥ 0,
		// first x with coord ≥ limit).
		lo = fixedSearchUp(tab, rowTerm, off, 0)
		hi = fixedSearchUp(tab, rowTerm, off, limit)
	} else {
		// coord nonincreasing: the interval is [first x with
		// coord ≤ limit−1, first x with coord ≤ −1).
		lo = fixedSearchDown(tab, rowTerm, off, limit-1)
		hi = fixedSearchDown(tab, rowTerm, off, -1)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// fixedSearchUp returns the smallest x in [0, len(tab)] with
// coord(x) ≥ bound, for nondecreasing coord.
func fixedSearchUp(tab []int32, rowTerm int32, off, bound int) int {
	lo, hi := 0, len(tab)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := fixed.ToInt(fixed.AddSat(rowTerm, tab[mid]), fixed.CoordFrac) + off
		if c >= bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// fixedSearchDown returns the smallest x in [0, len(tab)] with
// coord(x) ≤ bound, for nonincreasing coord.
func fixedSearchDown(tab []int32, rowTerm int32, off, bound int) int {
	lo, hi := 0, len(tab)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := fixed.ToInt(fixed.AddSat(rowTerm, tab[mid]), fixed.CoordFrac) + off
		if c <= bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// fixedRowSpan intersects the per-axis spans of one output row of the
// fixed-point nearest-neighbour transform: within [lo, hi) both source
// coordinates are in frame; outside it at least one is not.
func fixedRowSpan(t3tab, t4tab []int32, t2, t5 int32, cxt, cyt, w, h int) (lo, hi int) {
	loX, hiX := fixedSpan(t3tab, t2, cxt, w)
	loY, hiY := fixedSpan(t4tab, t5, cyt, h)
	lo, hi = max(loX, loY), min(hiX, hiY)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// splitSign returns the first index in [lo, hi] at which the monotone
// sum rowTerm+tab[x] changes sign relative to its value at lo (hi if it
// never does). The stepped inner loop uses it to carve a row span into
// segments of constant sign, inside which ties-away-from-zero rounding
// reduces to a constant-bias shift (see steppedFixedBand).
func splitSign(tab []int32, rowTerm int32, lo, hi int) int {
	neg := rowTerm+tab[lo] < 0
	a, b := lo+1, hi
	for a < b {
		mid := int(uint(a+b) >> 1)
		if (rowTerm+tab[mid] < 0) == neg {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a
}

// floatSpan returns the columns whose rounded float source coordinate
//
//	coord(x) = Round((tab[x] + rowTerm) + trans)
//
// lies inside [0, limit). The comparison stays in float64 (bounds are
// exactly representable) so wildly out-of-range coordinates — which
// would overflow an int conversion and break the search's monotonicity
// — compare correctly; NaNs fail every predicate and yield an empty
// span, matching the black row the guarded path produced.
func floatSpan(tab []float64, rowTerm, trans float64, limit int) (lo, hi int) {
	n := len(tab)
	if n == 0 {
		return 0, 0
	}
	if tab[n-1] >= tab[0] {
		lo = floatSearchUp(tab, rowTerm, trans, 0, false)
		hi = floatSearchUp(tab, rowTerm, trans, float64(limit), false)
	} else {
		lo = floatSearchDown(tab, rowTerm, trans, float64(limit-1), false)
		hi = floatSearchDown(tab, rowTerm, trans, -1, false)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// floatSpanFloor is the bilinear-interior variant: columns whose
// *floored* coordinate lies inside [0, limit) — with limit = n−1 along
// an axis of n source pixels, exactly "both taps in frame".
func floatSpanFloor(tab []float64, rowTerm, trans float64, limit int) (lo, hi int) {
	n := len(tab)
	if n == 0 {
		return 0, 0
	}
	if tab[n-1] >= tab[0] {
		lo = floatSearchUp(tab, rowTerm, trans, 0, true)
		hi = floatSearchUp(tab, rowTerm, trans, float64(limit), true)
	} else {
		lo = floatSearchDown(tab, rowTerm, trans, float64(limit-1), true)
		hi = floatSearchDown(tab, rowTerm, trans, -1, true)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func floatSearchUp(tab []float64, rowTerm, trans, bound float64, floor bool) int {
	lo, hi := 0, len(tab)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v := (tab[mid] + rowTerm) + trans
		if floor {
			v = math.Floor(v)
		} else {
			v = math.Round(v)
		}
		if v >= bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func floatSearchDown(tab []float64, rowTerm, trans, bound float64, floor bool) int {
	lo, hi := 0, len(tab)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v := (tab[mid] + rowTerm) + trans
		if floor {
			v = math.Floor(v)
		} else {
			v = math.Round(v)
		}
		if v <= bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
