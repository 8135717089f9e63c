package kalman

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boresight/internal/mat"
)

// updateRows is Update on the general loops whatever m is: the
// reference the m = 2 form is held to.
func updateRows(f *Filter, z, h []float64, H, R *mat.Mat) (Innovation, error) {
	f.measure(z, h, H, R)
	maha, err := f.innovateRows(H, R)
	if err != nil {
		return Innovation{}, err
	}
	f.commitRows()
	return Innovation{Residual: f.nu, S: f.s, Sigma: f.sigma, Mahalanobis: maha}, nil
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
					want, err := updateRows(rows, z, h, H, R)
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
		if _, err := updateRows(rows, z, h, H, R); err != ErrIllConditioned {
			t.Errorf("R = %v: general loops give %v, want ErrIllConditioned", R, err)
		}
	}
}

// TestPairAlternatesWithRows runs one filter through m = 2 and m = 6
// updates in turn, through Update and through InnovationOnly then
// Commit, and holds it to the same sequence on the general loops, so
// nothing one measurement dimension leaves in the scratch reaches the
// other.
func TestPairAlternatesWithRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 9
	p := randomSPD(rng, n, 1)
	pair, rows := New(n), New(n)
	pair.SetP(p)
	rows.SetP(p)
	for epoch := 0; epoch < 12; epoch++ {
		m := 2
		if epoch%2 == 1 {
			m = 6
		}
		H := sparseJacobian(rng, m, n)
		R := noise(rng, m, epoch%4 < 2)
		z, h := randomVec(rng, m), randomVec(rng, m)
		var got Innovation
		var err error
		if epoch%3 == 0 {
			got, err = pair.InnovationOnly(z, h, H, R)
			if err == nil {
				pair.Commit()
			}
		} else {
			got, err = pair.Update(z, h, H, R)
		}
		if err != nil {
			t.Fatalf("epoch %d (m=%d): %v", epoch, m, err)
		}
		want, err := updateRows(rows, z, h, H, R)
		if err != nil {
			t.Fatalf("epoch %d (m=%d), general loops: %v", epoch, m, err)
		}
		what := fmt.Sprintf("epoch %d m=%d", epoch, m)
		sameInnovation(t, what, got, want)
		sameFilter(t, what, pair, rows)
	}
}
