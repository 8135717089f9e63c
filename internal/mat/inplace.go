package mat

import "fmt"

// Destination-passing kernels.
//
// Every function in this file writes its result into a caller-owned
// destination and allocates nothing, which is what lets the Kalman
// filter and the render paths run with zero steady-state heap traffic
// (the repo's "as fast as the hardware allows" requirement: the FPGA
// the paper targets has no allocator to stall on, and neither should
// our hot loops). The allocating API (Mul, AddM, T, ...) is a thin
// wrapper that news the destination and calls the kernel.
//
// Aliasing convention, chosen once and enforced everywhere:
//
//   - Element-wise kernels (AddMTo, SubMTo, ScaleTo, AddVecTo,
//     SubVecTo, ScaleVecTo) read each input element exactly once
//     before writing the corresponding output element, so dst MAY
//     alias either operand (dst == a, dst == b, or both).
//   - Product and transpose kernels (MulTo, MulTTo, TMulTo, MulVecTo,
//     TransposeTo) read inputs after writing outputs, so dst MUST NOT
//     share storage with any operand; they panic with a descriptive
//     message if it does. Computing a product truly in place would
//     need a hidden temporary, which is exactly the allocation these
//     kernels exist to avoid.

// aliases reports whether two float64 slices share backing storage.
// Matrices own their whole backing array, so comparing the first
// element's address is sufficient for whole-matrix aliasing; it also
// catches identical subslices.
func aliases(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

func checkNoAlias(op string, dst *Mat, srcs ...*Mat) {
	for _, s := range srcs {
		if dst == s || aliases(dst.data, s.data) {
			panic(fmt.Sprintf("mat: %s destination aliases a source; use a distinct dst", op))
		}
	}
}

// MulTo computes dst = a*b. dst must be a.Rows x b.Cols and must not
// alias a or b.
func MulTo(dst, a, b *Mat) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTo shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo dst is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	checkNoAlias("MulTo", dst, a, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			av := a.data[i*a.cols+k]
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := dst.data[i*b.cols : (i+1)*b.cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// MulTTo computes dst = a * bᵀ. dst must be a.Rows x b.Rows and must
// not alias a or b.
func MulTTo(dst, a, b *Mat) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTTo shape mismatch %dx%d * (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTTo dst is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	checkNoAlias("MulTTo", dst, a, b)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			dst.data[i*b.rows+j] = s
		}
	}
}

// TMulTo computes dst = aᵀ * b. dst must be a.Cols x b.Cols and must
// not alias a or b.
func TMulTo(dst, a, b *Mat) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: TMulTo shape mismatch (%dx%d)ᵀ * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: TMulTo dst is %dx%d, want %dx%d", dst.rows, dst.cols, a.cols, b.cols))
	}
	checkNoAlias("TMulTo", dst, a, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.data[i*b.cols : (i+1)*b.cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// MulVecTo computes dst = a*v. dst must have a.Rows elements and must
// not alias v.
func MulVecTo(dst []float64, a *Mat, v []float64) {
	if a.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVecTo shape mismatch %dx%d * %d-vector", a.rows, a.cols, len(v)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVecTo dst has %d elements, want %d", len(dst), a.rows))
	}
	if aliases(dst, v) || aliases(dst, a.data) {
		panic("mat: MulVecTo destination aliases a source; use a distinct dst")
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, av := range row {
			s += float64(av * v[j])
		}
		dst[i] = s
	}
}

// AddMTo computes dst = a + b element-wise. dst may alias a and/or b.
func AddMTo(dst, a, b *Mat) {
	a.sameShape(b, "AddMTo")
	a.sameShape(dst, "AddMTo")
	for i, v := range a.data {
		dst.data[i] = v + b.data[i]
	}
}

// SubMTo computes dst = a - b element-wise. dst may alias a and/or b.
func SubMTo(dst, a, b *Mat) {
	a.sameShape(b, "SubMTo")
	a.sameShape(dst, "SubMTo")
	for i, v := range a.data {
		dst.data[i] = v - b.data[i]
	}
}

// ScaleTo computes dst = s*a element-wise. dst may alias a.
func ScaleTo(dst *Mat, s float64, a *Mat) {
	a.sameShape(dst, "ScaleTo")
	for i, v := range a.data {
		dst.data[i] = s * v
	}
}

// TransposeTo computes dst = aᵀ. dst must be a.Cols x a.Rows and must
// not alias a (an in-place transpose of the general rectangular case
// would need a temporary).
func TransposeTo(dst, a *Mat) {
	if dst.rows != a.cols || dst.cols != a.rows {
		panic(fmt.Sprintf("mat: TransposeTo dst is %dx%d, want %dx%d", dst.rows, dst.cols, a.cols, a.rows))
	}
	checkNoAlias("TransposeTo", dst, a)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.data[j*a.rows+i] = a.data[i*a.cols+j]
		}
	}
}

// AddVecTo computes dst = a + b. dst may alias a and/or b.
func AddVecTo(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("mat: AddVecTo length mismatch dst %d, a %d, b %d", len(dst), len(a), len(b)))
	}
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// SubVecTo computes dst = a - b. dst may alias a and/or b.
func SubVecTo(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("mat: SubVecTo length mismatch dst %d, a %d, b %d", len(dst), len(a), len(b)))
	}
	for i, v := range a {
		dst[i] = v - b[i]
	}
}

// ScaleVecTo computes dst = s*a. dst may alias a.
func ScaleVecTo(dst []float64, s float64, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: ScaleVecTo length mismatch dst %d, a %d", len(dst), len(a)))
	}
	for i, v := range a {
		dst[i] = s * v
	}
}

// CopyBlockTo copies the r x c block of src whose top-left element is
// (si, sj) into dst at (di, dj). Both blocks must lie fully inside
// their matrices, and dst must not alias src (block moves inside one
// matrix would need overlap analysis this kernel deliberately does not
// do). It allocates nothing. The filter-reconfiguration path uses it to
// carry covariance blocks between state layouts of different dimension.
func CopyBlockTo(dst *Mat, di, dj int, src *Mat, si, sj, r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: CopyBlockTo negative block %dx%d", r, c))
	}
	if si < 0 || sj < 0 || si+r > src.rows || sj+c > src.cols {
		panic(fmt.Sprintf("mat: CopyBlockTo source block (%d,%d)+%dx%d outside %dx%d",
			si, sj, r, c, src.rows, src.cols))
	}
	if di < 0 || dj < 0 || di+r > dst.rows || dj+c > dst.cols {
		panic(fmt.Sprintf("mat: CopyBlockTo destination block (%d,%d)+%dx%d outside %dx%d",
			di, dj, r, c, dst.rows, dst.cols))
	}
	checkNoAlias("CopyBlockTo", dst, src)
	for i := 0; i < r; i++ {
		copy(dst.data[(di+i)*dst.cols+dj:(di+i)*dst.cols+dj+c],
			src.data[(si+i)*src.cols+sj:(si+i)*src.cols+sj+c])
	}
}
