// Package mat provides the dense linear algebra used by the Kalman filter
// and the boresight estimator in this repository.
//
// The Go standard library has no matrix package, so this is a small,
// self-contained implementation of the operations the estimators and
// their tests use: element access, arithmetic, transpose products and
// the Cholesky factorisation and solves behind the NEES statistics. The
// allocating operations are the references the kalman and core tests
// check their fused loops against. Matrices are row-major dense
// float64; sizes are fixed at construction.
//
// All binary operations validate dimensions and panic with a descriptive
// message on mismatch. Estimation code builds matrices whose shapes are
// static properties of the filter design, so a shape mismatch is a
// programming error, not a runtime condition to handle.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Mat is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix; use New, Identity or FromSlice
// to obtain a usable matrix.
type Mat struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialised r x c matrix.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	return &Mat{rows: r, cols: c, data: make([]float64, r*c)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d ...float64) *Mat {
	m := New(len(d), len(d))
	for i, v := range d {
		m.data[i*len(d)+i] = v
	}
	return m
}

// FromSlice builds an r x c matrix from row-major data. The slice is
// copied; the matrix does not alias v.
func FromSlice(r, c int, v []float64) *Mat {
	if len(v) != r*c {
		panic(fmt.Sprintf("mat: FromSlice got %d values for %dx%d", len(v), r, c))
	}
	m := New(r, c)
	copy(m.data, v)
	return m
}

// FromRows builds a matrix from per-row slices; all rows must have equal
// length.
func FromRows(rows ...[]float64) *Mat {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at row i, column j by v.
func (m *Mat) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

// check panics unless (i, j) is inside the matrix. One unsigned
// compare per index covers both bounds, and the message is formatted
// only when the panic is printed, so check inlines into At, Set and
// Add.
func (m *Mat) check(i, j int) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
}

// indexError is the panic value of an out-of-range element access.
type indexError struct{ i, j, rows, cols int }

func (e indexError) Error() string {
	return fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d", e.i, e.j, e.rows, e.cols)
}

// Zero sets every element to zero in place, keeping the backing
// storage — the reset primitive behind the reusable filter scratch
// (kalman.Filter.Reset, core.Estimator.Reset).
func (m *Mat) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Copy copies the contents of src into m. Shapes must match.
func (m *Mat) Copy(src *Mat) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: Copy shape mismatch %dx%d <- %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Row returns a copy of row i.
func (m *Mat) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// AddM returns m + b as a new matrix. See AddMTo for the
// destination-passing form.
func (m *Mat) AddM(b *Mat) *Mat {
	out := New(m.rows, m.cols)
	AddMTo(out, m, b)
	return out
}

// SubM returns m - b as a new matrix. See SubMTo for the
// destination-passing form.
func (m *Mat) SubM(b *Mat) *Mat {
	out := New(m.rows, m.cols)
	SubMTo(out, m, b)
	return out
}

// Scale returns s*m as a new matrix. See ScaleTo for the
// destination-passing form.
func (m *Mat) Scale(s float64) *Mat {
	out := New(m.rows, m.cols)
	ScaleTo(out, s, m)
	return out
}

func (m *Mat) sameShape(b *Mat, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m*b. See MulTo for the
// destination-passing form.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	MulTo(out, m, b)
	return out
}

// MulT returns m * bᵀ. See MulTTo for the destination-passing form.
func (m *Mat) MulT(b *Mat) *Mat {
	if m.cols != b.cols {
		panic(fmt.Sprintf("mat: MulT shape mismatch %dx%d * (%dx%d)ᵀ", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.rows)
	MulTTo(out, m, b)
	return out
}

// T returns the transpose of m as a new matrix. See TransposeTo for the
// destination-passing form.
func (m *Mat) T() *Mat {
	out := New(m.cols, m.rows)
	TransposeTo(out, m)
	return out
}

// MulVec returns the matrix-vector product m*v. See MulVecTo for the
// destination-passing form.
func (m *Mat) MulVec(v []float64) []float64 {
	out := make([]float64, m.rows)
	MulVecTo(out, m, v)
	return out
}

// Symmetrize overwrites m with (m + mᵀ)/2. m must be square. Kalman
// covariance updates drift from exact symmetry in floating point; calling
// this after each update keeps the factorisations well-behaved.
func (m *Mat) Symmetrize() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: Symmetrize on non-square %dx%d", m.rows, m.cols))
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.data[i*n+j] + m.data[j*n+i])
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Mat) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and b have the same shape and all elements
// within tol of each other.
func (m *Mat) Equal(b *Mat, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
