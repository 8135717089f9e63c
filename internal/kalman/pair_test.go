package kalman

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boresight/internal/mat"
)

// rowsRef is the update on the general loops, for any number m of
// measurements: the form the filter's two-measurement update was
// derived from, and the reference TestPairMatchesRows holds it to bit
// for bit. It updates a Filter's x and P in place, on scratch of its
// own; matrices are row-major, and U, K and K·S − U are kept
// transposed, so the loops over states run along contiguous rows.
type rowsRef struct {
	f     *Filter
	m     int
	h     []float64 // H (m×n)
	nu    []float64 // innovation z − h
	sigma []float64 // sqrt(diag(S))
	sol   []float64 // S⁻¹·ν for the Mahalanobis distance
	ut    []float64 // Uᵀ = H·P (m×n)
	kt    []float64 // Kᵀ (m×n)
	dt    []float64 // (K·S − U)ᵀ (m×n)
	sd    []float64 // S (m×m)
	s     *mat.Mat  // S, as Innovation.S and the Cholesky input
	chol  *mat.Cholesky
}

// newRowsRef returns the reference update for m measurements of f.
func newRowsRef(f *Filter, m int) *rowsRef {
	n := f.Dim()
	return &rowsRef{
		f: f, m: m,
		h: make([]float64, m*n), nu: make([]float64, m),
		sigma: make([]float64, m), sol: make([]float64, m),
		ut: make([]float64, m*n), kt: make([]float64, m*n), dt: make([]float64, m*n),
		sd: make([]float64, m*m), s: mat.New(m, m), chol: mat.NewCholesky(m),
	}
}

// update is Filter.Update on the general loops.
func (r *rowsRef) update(z, h []float64, H, R *mat.Mat) (Innovation, error) {
	mat.SubVecTo(r.nu, z, h)
	maha, err := r.innovateRows(H, R)
	if err != nil {
		return Innovation{}, err
	}
	r.commitRows()
	return Innovation{Residual: r.nu, S: r.s, Sigma: r.sigma, Mahalanobis: maha}, nil
}

// innovateRows fills h, ut, sd, s, chol, sigma and sol and returns the
// Mahalanobis distance.
func (r *rowsRef) innovateRows(H, R *mat.Mat) (float64, error) {
	n, m, p := r.f.Dim(), r.m, r.f.p
	// U = P·Hᵀ, stored as Uᵀ. P is exactly symmetric, so column j of P
	// is row j, and row a of Uᵀ accumulates H[a][j]·P[j] over j — the
	// order of a row-by-column product, without its dependency chain.
	// Zero entries of H add nothing and are skipped.
	for a := 0; a < m; a++ {
		ua := r.ut[a*n : (a+1)*n]
		clear(ua)
		for j := 0; j < n; j++ {
			hv := H.At(a, j)
			r.h[a*n+j] = hv
			if hv == 0 {
				continue
			}
			pj := p[j*n:][:len(ua)]
			for i := range ua {
				ua[i] += float64(pj[i] * hv)
			}
		}
	}
	// S = H·U + R, symmetrised. Zero entries of H are skipped, as
	// mat.MulTo skips them, so S is the product mat would form.
	for a := 0; a < m; a++ {
		ha := r.h[a*n : (a+1)*n]
		for b := 0; b < m; b++ {
			ub := r.ut[b*n : (b+1)*n]
			var s float64
			for j, hv := range ha {
				if hv != 0 {
					s += float64(hv * ub[j])
				}
			}
			r.sd[a*m+b] = s + R.At(a, b)
		}
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			v := 0.5 * (r.sd[a*m+b] + r.sd[b*m+a])
			r.sd[a*m+b], r.sd[b*m+a] = v, v
		}
		for b := 0; b < m; b++ {
			r.s.Set(a, b, r.sd[a*m+b])
		}
	}
	if err := r.chol.Factorize(r.s); err != nil {
		return 0, ErrIllConditioned
	}
	for i := range r.sigma {
		r.sigma[i] = math.Sqrt(r.sd[i*m+i])
	}
	r.chol.SolveVecTo(r.sol, r.nu)
	return math.Sqrt(math.Max(0, mat.Dot(r.nu, r.sol))), nil
}

// commitRows applies innovateRows' innovation.
func (r *rowsRef) commitRows() {
	n, x := r.f.Dim(), r.f.x
	// S·Kᵀ = Uᵀ, as S is symmetric: row i of K solves S·kᵢ = uᵢ.
	copy(r.kt, r.ut)
	r.chol.SolveRowsTo(r.kt, n)
	for i := range x {
		var s float64
		for a, v := range r.nu {
			s += float64(r.kt[a*n+i] * v)
		}
		x[i] += s
	}
	covUpdate(r.f.p, r.kt, r.ut, r.sd, r.dt, n, r.m)
}

// covUpdate overwrites the n×n covariance p with
// P − K·Uᵀ − U·Kᵀ + K·S·Kᵀ, given Kᵀ and Uᵀ (m×n) and the symmetric S
// (m×m), all row-major. It evaluates the identity as
// P − K·Uᵀ + (K·S − U)·Kᵀ, one product fewer per entry, with the m×n
// scratch dt holding (K·S − U)ᵀ, which is zero up to the error in K.
// The result is the optimal posterior plus Δ·S·Δᵀ when K is the exact
// gain plus Δ. Only the upper triangle is computed; the lower mirrors
// it.
func covUpdate(p, kt, ut, s, dt []float64, n, m int) {
	for b := 0; b < m; b++ {
		for i := 0; i < n; i++ {
			var t float64
			for a := 0; a < m; a++ {
				t += float64(kt[a*n+i] * s[a*m+b])
			}
			dt[b*n+i] = t - ut[b*n+i]
		}
	}
	// Entry (i, j) takes its m terms in order of a, as one sum would.
	for a := 0; a < m; a++ {
		ka, ua, da := kt[a*n:(a+1)*n], ut[a*n:(a+1)*n], dt[a*n:(a+1)*n]
		for i, kia := range ka {
			row := p[i*n+i : (i+1)*n]
			kr, ur := ka[i:i+len(row)], ua[i:i+len(row)]
			for j := range row {
				row[j] += float64(da[i]*kr[j]) - float64(kia*ur[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p[j*n+i] = p[i*n+j]
		}
	}
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %v (%#x), general loops give %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// sameInnovation fails unless two innovations agree bit for bit.
func sameInnovation(t *testing.T, what string, got, want Innovation) {
	t.Helper()
	sameBits(t, what+" Residual", got.Residual, want.Residual)
	sameBits(t, what+" Sigma", got.Sigma, want.Sigma)
	m := want.S.Rows()
	gs, ws := make([]float64, 0, m*m), make([]float64, 0, m*m)
	for a := 0; a < m; a++ {
		gs = append(gs, got.S.Row(a)...)
		ws = append(ws, want.S.Row(a)...)
	}
	sameBits(t, what+" S", gs, ws)
	sameBits(t, what+" Mahalanobis", []float64{got.Mahalanobis}, []float64{want.Mahalanobis})
}

// sameFilter fails unless two filters hold the same x and P bits.
func sameFilter(t *testing.T, what string, got, want *Filter) {
	t.Helper()
	sameBits(t, what+" x", got.x, want.x)
	sameBits(t, what+" P", got.p, want.p)
}

// estimatorJacobian returns a 2×n Jacobian with the zeros core's
// estimator leaves in its H: each angle row misses one angle, and the
// bias and scale columns (states 3–6) each touch one row. States past
// 6 take both rows, as the lever-arm and IMU columns do.
func estimatorJacobian(rng *rand.Rand, n int) *mat.Mat {
	H := mat.New(2, n)
	H.Set(0, 1, rng.NormFloat64())
	H.Set(0, 2, rng.NormFloat64())
	H.Set(1, 0, rng.NormFloat64())
	H.Set(1, 2, rng.NormFloat64())
	if n >= 7 {
		H.Set(0, 3, 1)
		H.Set(1, 4, 1)
		H.Set(0, 5, rng.NormFloat64())
		H.Set(1, 6, rng.NormFloat64())
	}
	for j := 7; j < n; j++ {
		H.Set(0, j, rng.NormFloat64())
		H.Set(1, j, rng.NormFloat64())
	}
	return H
}

// sparseJacobian returns an m×n Jacobian with about a third of its
// entries zero, at random.
func sparseJacobian(rng *rand.Rand, m, n int) *mat.Mat {
	H := mat.New(m, n)
	for a := 0; a < m; a++ {
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				H.Set(a, j, rng.NormFloat64())
			}
		}
	}
	return H
}

// noise returns an m×m measurement covariance: diagonal, or full
// with correlated components.
func noise(rng *rand.Rand, m int, full bool) *mat.Mat {
	if !full {
		R := mat.New(m, m)
		for a := 0; a < m; a++ {
			R.Set(a, a, math.Pow(10, -3+2*rng.Float64()))
		}
		return R
	}
	B := mat.New(m, m)
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			B.Set(a, b, 0.1*rng.NormFloat64())
		}
	}
	R := B.MulT(B)
	for a := 0; a < m; a++ {
		R.Set(a, a, R.At(a, a)+1e-3)
	}
	return R
}

// randomVec returns n standard normal draws.
func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestPairMatchesRows holds the m = 2 form of the update to the
// general loops bit for bit: x, every entry of P and the Innovation,
// over a run of predict-update epochs on random SPD priors, with the
// estimator's H and with randomly sparse H, diagonal and full R.
func TestPairMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{3, 7, 16} {
		for _, sparse := range []bool{false, true} {
			for _, full := range []bool{false, true} {
				p := randomSPD(rng, n, 2)
				x0 := randomVec(rng, n)
				pair, rows := New(n), New(n)
				for _, f := range []*Filter{pair, rows} {
					f.SetP(p)
					f.SetState(x0)
				}
				ref := newRowsRef(rows, 2)
				q := make([]float64, n)
				for i := range q {
					q[i] = 1e-4 * p.At(i, i)
				}
				for epoch := 0; epoch < 25; epoch++ {
					H := estimatorJacobian(rng, n)
					if sparse {
						H = sparseJacobian(rng, 2, n)
					}
					R := noise(rng, 2, full)
					z, h := randomVec(rng, 2), randomVec(rng, 2)
					got, err := pair.Update(z, h, H, R)
					if err != nil {
						t.Fatalf("n=%d epoch %d: %v", n, epoch, err)
					}
					want, err := ref.update(z, h, H, R)
					if err != nil {
						t.Fatalf("n=%d epoch %d, general loops: %v", n, epoch, err)
					}
					what := fmt.Sprintf("n=%d sparse=%v fullR=%v epoch %d", n, sparse, full, epoch)
					sameInnovation(t, what, got, want)
					sameFilter(t, what, pair, rows)
					pair.PredictAdditive(q)
					rows.PredictAdditive(q)
				}
			}
		}
	}
}

// TestPairIllConditioned checks that an S that is not positive
// definite fails the m = 2 form as it fails the general loops, at the
// first pivot and at the second.
func TestPairIllConditioned(t *testing.T) {
	H := mat.FromRows([]float64{1, 0, 0}, []float64{0, 1, 0})
	for _, R := range []*mat.Mat{
		mat.Diag(-1, 1), // S00 ≤ 0
		mat.FromRows([]float64{1, 2}, []float64{2, 1}), // S11 − L10² ≤ 0
	} {
		z, h := []float64{0.1, 0.2}, []float64{0, 0}
		pair, rows := New(3), New(3)
		if _, err := pair.InnovationOnly(z, h, H, R); err != ErrIllConditioned {
			t.Errorf("R = %v: m = 2 form gives %v, want ErrIllConditioned", R, err)
		}
		if _, err := newRowsRef(rows, 2).update(z, h, H, R); err != ErrIllConditioned {
			t.Errorf("R = %v: general loops give %v, want ErrIllConditioned", R, err)
		}
	}
}
