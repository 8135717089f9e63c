package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// LU holds the LU factorisation of a square matrix with partial
// pivoting: P*A = L*U, where L is unit lower triangular and U upper
// triangular. The workspace is reusable: NewLU allocates it once and
// Factorize refactors new matrices into the same storage, so a filter
// that solves an n×n system every step allocates nothing after setup.
type LU struct {
	lu *Mat // packed L (below diag, unit diag implicit) and U (on/above diag)
	// piv is the pivot swap sequence: at elimination step k, row k was
	// swapped with row piv[k] (piv[k] == k when no swap occurred). The
	// swap-sequence form — rather than a permutation vector — is what
	// lets SolveVecTo apply the row permutation to a right-hand side
	// fully in place.
	piv   []int
	signs int // permutation parity, +1 or -1
}

// NewLU returns a reusable LU workspace for n×n systems. Call
// Factorize to populate it.
func NewLU(n int) *LU {
	return &LU{lu: New(n, n), piv: make([]int, n), signs: 1}
}

// Factorize computes the LU factorisation of square a with partial
// pivoting into the (reused) workspace, allocating nothing. a must
// match the workspace dimension. On error the workspace contents are
// undefined and must be refactorised before solving.
func (f *LU) Factorize(a *Mat) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Factorize on non-square %dx%d", a.rows, a.cols))
	}
	n := f.lu.rows
	if a.rows != n {
		panic(fmt.Sprintf("mat: Factorize got %dx%d for %dx%d workspace", a.rows, a.cols, n, n))
	}
	f.lu.Copy(a)
	f.signs = 1
	lu := f.lu
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest magnitude in column k at or
		// below the diagonal.
		p := k
		max := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > max {
				max, p = a, i
			}
		}
		if max == 0 {
			return ErrSingular
		}
		f.piv[k] = p
		if p != k {
			rowp := lu.data[p*n : (p+1)*n]
			rowk := lu.data[k*n : (k+1)*n]
			for j := range rowk {
				rowk[j], rowp[j] = rowp[j], rowk[j]
			}
			f.signs = -f.signs
		}
		pivot := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivot
			lu.data[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= float64(m * lu.data[k*n+j])
			}
		}
	}
	return nil
}

// Factor computes the LU factorisation of square a with partial
// pivoting. See NewLU/Factorize for the allocation-free form.
func Factor(a *Mat) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Factor on non-square %dx%d", a.rows, a.cols))
	}
	f := NewLU(a.rows)
	if err := f.Factorize(a); err != nil {
		return nil, err
	}
	return f, nil
}

// SolveVecTo solves A*x = b into dst for one right-hand side,
// allocating nothing. dst may alias b (the solve runs fully in place).
func (f *LU) SolveVecTo(dst, b []float64) {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("mat: SolveVecTo got dst %d, b %d for %dx%d system", len(dst), len(b), n, n))
	}
	copy(dst, b)
	// Apply the pivot swaps in place.
	for k, p := range f.piv {
		if p != k {
			dst[k], dst[p] = dst[p], dst[k]
		}
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.data[i*n : i*n+i]
		for j, l := range row {
			s += float64(l * dst[j])
		}
		dst[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += float64(f.lu.data[i*n+j] * dst[j])
		}
		dst[i] = (dst[i] - s) / f.lu.data[i*n+i]
	}
}

// SolveVec solves A*x = b for one right-hand side. See SolveVecTo for
// the allocation-free form.
func (f *LU) SolveVec(b []float64) []float64 {
	dst := make([]float64, f.lu.rows)
	f.SolveVecTo(dst, b)
	return dst
}

// SolveTo solves A*X = B column by column into dst using the
// caller-owned work slice (length n), allocating nothing. dst may
// alias b.
func (f *LU) SolveTo(dst, b *Mat, work []float64) {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: SolveTo rhs has %d rows for %dx%d system", b.rows, n, n))
	}
	b.sameShape(dst, "SolveTo")
	if len(work) != n {
		panic(fmt.Sprintf("mat: SolveTo work has %d elements, want %d", len(work), n))
	}
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			work[i] = b.data[i*b.cols+j]
		}
		f.SolveVecTo(work, work)
		for i, v := range work {
			dst.data[i*b.cols+j] = v
		}
	}
}

// Solve solves A*X = B column by column. See SolveTo for the
// allocation-free form.
func (f *LU) Solve(b *Mat) *Mat {
	n := f.lu.rows
	out := New(n, b.cols)
	f.SolveTo(out, b, make([]float64, n))
	return out
}

// Det returns the determinant from the factorisation.
func (f *LU) Det() float64 {
	n := f.lu.rows
	d := float64(f.signs)
	for i := 0; i < n; i++ {
		d *= f.lu.data[i*n+i]
	}
	return d
}

// Inverse returns A⁻¹ for square a, or ErrSingular.
func Inverse(a *Mat) (*Mat, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.rows)), nil
}

// Solve solves A*X = B, returning X, or ErrSingular.
func Solve(a, b *Mat) (*Mat, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Det returns the determinant of square a (0 if singular).
func Det(a *Mat) float64 {
	f, err := Factor(a)
	if err != nil {
		return 0
	}
	return f.Det()
}

// Cholesky holds the lower-triangular Cholesky factor L with A = L*Lᵀ.
// Like LU, the workspace is reusable via NewCholesky/Factorize so the
// per-step innovation solve in the Kalman filter allocates nothing.
type Cholesky struct {
	l *Mat
}

// NewCholesky returns a reusable Cholesky workspace for n×n systems.
func NewCholesky(n int) *Cholesky {
	return &Cholesky{l: New(n, n)}
}

// Factorize computes the Cholesky factorisation of a symmetric
// positive definite matrix into the (reused) workspace, allocating
// nothing. a must match the workspace dimension. On error the
// workspace contents are undefined.
func (c *Cholesky) Factorize(a *Mat) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Cholesky Factorize on non-square %dx%d", a.rows, a.cols))
	}
	n := c.l.rows
	if a.rows != n {
		panic(fmt.Sprintf("mat: Cholesky Factorize got %dx%d for %dx%d workspace", a.rows, a.cols, n, n))
	}
	l := c.l
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			v := l.data[j*n+k]
			d += float64(v * v)
		}
		d = a.data[j*n+j] - d
		if d <= 0 {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += float64(l.data[i*n+k] * l.data[j*n+k])
			}
			l.data[i*n+j] = (a.data[i*n+j] - s) / ljj
		}
	}
	return nil
}

// CholeskyFactor computes the Cholesky factorisation of a symmetric
// positive definite matrix. See NewCholesky/Factorize for the
// allocation-free form.
func CholeskyFactor(a *Mat) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: CholeskyFactor on non-square %dx%d", a.rows, a.cols))
	}
	c := NewCholesky(a.rows)
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Mat { return c.l.Clone() }

// SolveVecTo solves A*x = b into dst using the factorisation,
// allocating nothing. dst may alias b. It is SolveRowsTo with one
// column.
func (c *Cholesky) SolveVecTo(dst, b []float64) {
	n := c.l.rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("mat: Cholesky SolveVecTo got dst %d, b %d for %dx%d system", len(dst), len(b), n, n))
	}
	copy(dst, b)
	c.SolveRowsTo(dst, 1)
}

// SolveRowsTo overwrites x, n×w row-major for an n×n system, with
// A⁻¹·x, allocating nothing: a forward and a back sweep, each over
// whole rows of x. Every column of x takes the same operations in the
// same order as it would alone, so its bits do not depend on w.
func (c *Cholesky) SolveRowsTo(x []float64, w int) {
	n := c.l.rows
	if w < 0 || len(x) != n*w {
		panic(fmt.Sprintf("mat: Cholesky SolveRowsTo got %d values, %d columns for %dx%d system", len(x), w, n, n))
	}
	l := c.l.data
	// Forward: L*y = x.
	for i := 0; i < n; i++ {
		xi := x[i*w : (i+1)*w]
		for j := 0; j < i; j++ {
			lij, xj := l[i*n+j], x[j*w:][:len(xi)]
			for k := range xi {
				xi[k] -= float64(lij * xj[k])
			}
		}
		lii := l[i*n+i]
		for k := range xi {
			xi[k] /= lii
		}
	}
	// Back: Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		xi := x[i*w : (i+1)*w]
		for j := i + 1; j < n; j++ {
			lji, xj := l[j*n+i], x[j*w:][:len(xi)]
			for k := range xi {
				xi[k] -= float64(lji * xj[k])
			}
		}
		lii := l[i*n+i]
		for k := range xi {
			xi[k] /= lii
		}
	}
}

// SolveVec solves A*x = b using the factorisation. See SolveVecTo for
// the allocation-free form.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	dst := make([]float64, c.l.rows)
	c.SolveVecTo(dst, b)
	return dst
}

// SolveTo solves A*X = B into dst with SolveRowsTo, allocating
// nothing. dst may alias b.
func (c *Cholesky) SolveTo(dst, b *Mat) {
	n := c.l.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: Cholesky SolveTo rhs has %d rows for %dx%d system", b.rows, n, n))
	}
	b.sameShape(dst, "Cholesky SolveTo")
	copy(dst.data, b.data)
	c.SolveRowsTo(dst.data, b.cols)
}

// Solve solves A*X = B. See SolveTo for the allocation-free form.
func (c *Cholesky) Solve(b *Mat) *Mat {
	out := New(c.l.rows, b.cols)
	c.SolveTo(out, b)
	return out
}
