package kalman

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boresight/internal/mat"
)

// josephUpdate is the reference the filter's covariance update is
// checked against: the textbook gain K = P·Hᵀ·S⁻¹ and the Joseph form
// (I−KH)·P·(I−KH)ᵀ + K·R·Kᵀ, built on mat's allocating API.
func josephUpdate(t *testing.T, p, H, R *mat.Mat) (post, k *mat.Mat) {
	t.Helper()
	n := p.Rows()
	pht := p.MulT(H)
	s := H.Mul(pht).AddM(R)
	s.Symmetrize()
	chol, err := mat.CholeskyFactor(s)
	if err != nil {
		t.Fatalf("reference S not positive definite: %v", err)
	}
	k = chol.Solve(pht.T()).T()
	ikh := mat.Identity(n).SubM(k.Mul(H))
	post = ikh.Mul(p).MulT(ikh).AddM(k.Mul(R).MulT(k))
	return post, k
}

// randomSPD returns a correlated symmetric positive definite n×n
// matrix whose standard deviations are scaled by factors drawn
// log-uniformly from 10^±decades.
func randomSPD(rng *rand.Rand, n int, decades float64) *mat.Mat {
	b := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	p := b.MulT(b).AddM(mat.Identity(n).Scale(0.1))
	d := mat.New(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, math.Pow(10, decades*(2*rng.Float64()-1)))
	}
	p = d.Mul(p).Mul(d)
	p.Symmetrize()
	return p
}

// measurement returns a random m×n Jacobian and the diagonal R that
// puts the ratio H·P·Hᵀ/R at ratio on every row.
func measurement(rng *rand.Rand, p *mat.Mat, m int, ratio float64) (H, R *mat.Mat) {
	n := p.Rows()
	H = mat.New(m, n)
	for a := 0; a < m; a++ {
		for j := 0; j < n; j++ {
			H.Set(a, j, rng.NormFloat64())
		}
	}
	hph := H.Mul(p).MulT(H)
	R = mat.New(m, m)
	for a := 0; a < m; a++ {
		R.Set(a, a, hph.At(a, a)/ratio)
	}
	return H, R
}

// maxScaledDiff returns the largest |a_ij − b_ij| / √(P_ii·P_jj) over
// the entries of a and b, scaled by the prior p's diagonal.
func maxScaledDiff(a, b, p *mat.Mat) float64 {
	var worst float64
	for i := 0; i < p.Rows(); i++ {
		for j := 0; j < p.Rows(); j++ {
			d := math.Abs(a.At(i, j)-b.At(i, j)) / math.Sqrt(p.At(i, i)*p.At(j, j))
			worst = math.Max(worst, d)
		}
	}
	return worst
}

// checkSymmetricPD fails unless the filter's covariance is bitwise
// symmetric and has a Cholesky factor.
func checkSymmetricPD(t *testing.T, f *Filter, when string) {
	t.Helper()
	n := f.Dim()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a, b := f.p[i*n+j], f.p[j*n+i]; a != b {
				t.Fatalf("%s: P(%d,%d) = %v but P(%d,%d) = %v", when, i, j, a, j, i, b)
			}
		}
	}
	if _, err := mat.CholeskyFactor(f.P()); err != nil {
		t.Fatalf("%s: P not positive definite: %v", when, err)
	}
}

// TestUpdateMatchesJoseph holds Update's covariance to the Joseph
// reference across state sizes, priors whose variances span up to
// eight decades, and measurement-to-prior precision ratios up to 1e10,
// and checks that P stays bitwise symmetric and positive definite
// through Update and PredictAdditive.
//
// The expanded form uses U = P·Hᵀ directly, so U's rounding reaches P
// to first order, scaled by the gain; Joseph sees it only through K.
// For the filter's two measurements on priors spanning eight decades
// that reaches ~1e-12·√(PᵢᵢPⱼⱼ): 7.1e-13 on this test's draws, and up
// to 1.7e-12 with other seeds.
func TestUpdateMatchesJoseph(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const m, tol = 2, 1e-12
	for _, decades := range []float64{0, 2} {
		var worst float64
		for _, n := range []int{7, 16} {
			for _, ratio := range []float64{1e2, 1e4, 1e6, 1e8, 1e10} {
				name := fmt.Sprintf("decades=%g n=%d ratio=%g", decades, n, ratio)
				for trial := 0; trial < 4; trial++ {
					p := randomSPD(rng, n, decades)
					H, R := measurement(rng, p, m, ratio)
					want, _ := josephUpdate(t, p, H, R)

					f := New(n)
					f.SetP(p)
					z := []float64{rng.NormFloat64(), rng.NormFloat64()}
					if _, err := f.Update(z, make([]float64, m), H, R); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					d := maxScaledDiff(f.P(), want, p)
					if d > tol {
						t.Errorf("%s trial %d: scaled difference from Joseph %.3g > %g", name, trial, d, tol)
					}
					worst = math.Max(worst, d)
					checkSymmetricPD(t, f, name+" after Update")

					q := make([]float64, n)
					for i := range q {
						q[i] = 1e-3 * p.At(i, i)
					}
					f.PredictAdditive(q)
					checkSymmetricPD(t, f, name+" after PredictAdditive")
				}
			}
		}
		t.Logf("decades=%g: largest difference from Joseph %.3g·√(PᵢᵢPⱼⱼ)", decades, worst)
	}
}

// TestSensorPairsMatchJointJoseph backs running one filter per sensor
// (core.MultiEstimator): when the prior is block-diagonal over the
// sensors, R is diagonal and each sensor's two measurement rows touch
// only its own states, the stacked Joseph update of every sensor at
// once leaves the off-block covariance exactly zero, and each sensor's
// block and state correction equal its own two-measurement Update.
func TestSensorPairsMatchJointJoseph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const sensors, per = 3, 5
	const n = sensors * per
	joint := mat.New(n, n)
	H := mat.New(2*sensors, n)
	R := mat.New(2*sensors, 2*sensors)
	z := randomVec(rng, 2*sensors)
	pairs := make([]*Filter, sensors)
	for s := range pairs {
		p := randomSPD(rng, per, 1)
		Hs, Rs := measurement(rng, p, 2, 1e3)
		mat.CopyBlockTo(joint, s*per, s*per, p, 0, 0, per, per)
		mat.CopyBlockTo(H, 2*s, s*per, Hs, 0, 0, 2, per)
		R.Set(2*s, 2*s, Rs.At(0, 0))
		R.Set(2*s+1, 2*s+1, Rs.At(1, 1))
		pairs[s] = New(per)
		pairs[s].SetP(p)
		if _, err := pairs[s].Update(z[2*s:2*s+2], []float64{0, 0}, Hs, Rs); err != nil {
			t.Fatal(err)
		}
	}
	post, k := josephUpdate(t, joint, H, R)
	x := k.MulVec(z)
	for s, f := range pairs {
		for i := 0; i < n; i++ {
			if i/per != s {
				for j := s * per; j < (s+1)*per; j++ {
					if v := post.At(i, j); v != 0 {
						t.Fatalf("joint posterior (%d,%d) = %v across sensors, want 0", i, j, v)
					}
				}
			}
		}
		block := mat.New(per, per)
		prior := mat.New(per, per)
		mat.CopyBlockTo(block, 0, 0, post, s*per, s*per, per, per)
		mat.CopyBlockTo(prior, 0, 0, joint, s*per, s*per, per, per)
		if d := maxScaledDiff(f.P(), block, prior); d > 1e-12 {
			t.Errorf("sensor %d: pair update's P is %.3g·√(PᵢᵢPⱼⱼ) from the joint Joseph block", s, d)
		}
		for i, v := range f.State() {
			want := x[s*per+i]
			if math.Abs(v-want) > 1e-12*math.Sqrt(prior.At(i, i)) {
				t.Errorf("sensor %d: state %d = %v, joint update gives %v", s, i, v, want)
			}
		}
	}
}

// TestCovUpdateGainPerturbation checks the property that justifies
// the expanded form over the standard P − K·Uᵀ: a gain off by Δ gives
// the optimal posterior plus Δ·S·Δᵀ, with no term linear in Δ, while
// the standard form is off by −Δ·Uᵀ. It perturbs the gain fed to the
// reference covUpdate, which the filter's update matches bit for bit
// (TestPairMatchesRows).
func TestCovUpdateGainPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, m = 7, 2
	p := randomSPD(rng, n, 0)
	H, R := measurement(rng, p, m, 1e3)
	opt, k := josephUpdate(t, p, H, R)
	u := p.MulT(H)
	s := H.Mul(u).AddM(R)
	s.Symmetrize()

	// Perturb every gain entry by ~1e-3 of the gain's scale.
	delta := mat.New(n, m)
	for i := 0; i < n; i++ {
		for a := 0; a < m; a++ {
			delta.Set(i, a, 1e-3*k.MaxAbs()*rng.NormFloat64())
		}
	}
	kd := k.AddM(delta)
	want := opt.AddM(delta.Mul(s).MulT(delta))

	flat := func(x *mat.Mat) []float64 {
		out := make([]float64, 0, x.Rows()*x.Cols())
		for i := 0; i < x.Rows(); i++ {
			out = append(out, x.Row(i)...)
		}
		return out
	}
	got := flat(p)
	covUpdate(got, flat(kd.T()), flat(u.T()), flat(s), make([]float64, m*n), n, m)
	if d := maxScaledDiff(mat.FromSlice(n, n, got), want, p); d > 1e-12 {
		t.Errorf("expanded form with K+Δ is %.3g·√(PᵢᵢPⱼⱼ) from optimal + Δ·S·Δᵀ", d)
	}
	standard := p.SubM(kd.MulT(u))
	if d := maxScaledDiff(standard, want, p); d < 1e-6 {
		t.Errorf("standard form with K+Δ only %.3g from optimal + Δ·S·Δᵀ; the perturbation is too small to tell the forms apart", d)
	}
}

// TestCommitAppliesInnovation checks that InnovationOnly followed by
// Commit leaves the same state and covariance as Update, bit for bit,
// and that the Innovation InnovationOnly returned survives the Commit.
func TestCommitAppliesInnovation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	p := randomSPD(rng, 7, 2)
	H, R := measurement(rng, p, 2, 1e3)
	z, h := []float64{0.3, -0.2}, []float64{0.1, 0.05}

	viaUpdate := New(7)
	viaUpdate.SetP(p)
	if _, err := viaUpdate.Update(z, h, H, R); err != nil {
		t.Fatal(err)
	}

	f := New(7)
	f.SetP(p)
	inn, err := f.InnovationOnly(z, h, H, R)
	if err != nil {
		t.Fatal(err)
	}
	res0, sig0, s00 := inn.Residual[0], inn.Sigma[0], inn.S.At(0, 0)
	f.Commit()
	if inn.Residual[0] != res0 || inn.Sigma[0] != sig0 || inn.S.At(0, 0) != s00 {
		t.Fatal("Commit overwrote the innovation it applied")
	}
	for i, v := range viaUpdate.x {
		if f.x[i] != v {
			t.Fatalf("x[%d] = %v after InnovationOnly+Commit, %v after Update", i, f.x[i], v)
		}
	}
	for i, v := range viaUpdate.p {
		if f.p[i] != v {
			t.Fatalf("P[%d] = %v after InnovationOnly+Commit, %v after Update", i, f.p[i], v)
		}
	}
}

// TestCommitRequiresFreshInnovation checks that Commit refuses to apply
// an innovation the state or covariance has moved on from, one already
// committed, a failed one, or none at all.
func TestCommitRequiresFreshInnovation(t *testing.T) {
	H := mat.FromRows([]float64{1, 0}, []float64{0, 1})
	R := mat.Diag(0.01, 0.01)
	z, h := []float64{0.5, -0.5}, []float64{0, 0}
	innovate := func(f *Filter) {
		if _, err := f.InnovationOnly(z, h, H, R); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		before func(f *Filter)
	}{
		{"no innovation", func(f *Filter) {}},
		{"a failed innovation", func(f *Filter) {
			if _, err := f.InnovationOnly(z, h, H, mat.Diag(-1, -1)); err != ErrIllConditioned {
				t.Fatalf("S = 0: err = %v, want ErrIllConditioned", err)
			}
		}},
		{"PredictAdditive", func(f *Filter) { innovate(f); f.PredictAdditive([]float64{1e-6, 1e-6}) }},
		{"SetP", func(f *Filter) { innovate(f); f.SetP(mat.Diag(1, 1)) }},
		{"SetPDiag", func(f *Filter) { innovate(f); f.SetPDiag([]float64{1, 1}) }},
		{"SetCovAt", func(f *Filter) { innovate(f); f.SetCovAt(0, 0, 2) }},
		{"SetState", func(f *Filter) { innovate(f); f.SetState([]float64{1, 2}) }},
		{"SetStateAt", func(f *Filter) { innovate(f); f.SetStateAt(1, 2) }},
		{"Reset", func(f *Filter) { innovate(f); f.Reset() }},
		{"Resize", func(f *Filter) { innovate(f); f.Resize(3) }},
		{"Commit", func(f *Filter) { innovate(f); f.Commit() }},
		{"Update", func(f *Filter) {
			if _, err := f.Update(z, h, H, R); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		f := New(2)
		f.SetPDiag([]float64{1, 1})
		c.before(f)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Commit after %s did not panic", c.name)
				}
			}()
			f.Commit()
		}()
	}
}
