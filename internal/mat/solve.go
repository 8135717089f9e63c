package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular Cholesky factor L with A = L*Lᵀ.
// The workspace is reusable via NewCholesky/Factorize, so a solve
// against a new matrix of the same size allocates nothing.
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
