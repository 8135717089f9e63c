package kalman

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/mat"
)

// scalarFilter builds a 2-state filter whose states are each measured
// directly by one of the two measurements: two scalar problems side by
// side, each with prior variance p0.
func scalarFilter(p0 float64) *Filter {
	f := New(2)
	f.SetP(mat.Diag(p0, p0))
	return f
}

// direct returns the Jacobian of scalarFilter's measurements.
func direct() *mat.Mat { return mat.FromRows([]float64{1, 0}, []float64{0, 1}) }

func TestScalarConstantConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := []float64{3.7, -1.2}
	noise := 0.5
	f := scalarFilter(100)
	H := direct()
	R := mat.Diag(noise*noise, noise*noise)
	for i := 0; i < 2000; i++ {
		z := []float64{truth[0] + rng.NormFloat64()*noise, truth[1] + rng.NormFloat64()*noise}
		if _, err := f.Update(z, f.State(), H, R); err != nil {
			t.Fatal(err)
		}
	}
	// After 2000 measurements, sigma ≈ noise/sqrt(2000).
	wantSigma := noise / math.Sqrt(2000)
	for i, want := range truth {
		if est := f.State()[i]; math.Abs(est-want) > 0.05 {
			t.Fatalf("state %d: estimate %v, truth %v", i, est, want)
		}
		if got := f.Sigma(i); math.Abs(got-wantSigma)/wantSigma > 0.1 {
			t.Fatalf("state %d: sigma %v, want ~%v", i, got, wantSigma)
		}
	}
}

func TestScalarFirstUpdateMatchesClosedForm(t *testing.T) {
	// One update with P0 = diag(4, 4), R = I: on each axis K = 4/5 and
	// P1 = (1-K)·4·(1-K) + K²·1 = 0.8, and the axes stay uncorrelated.
	f := scalarFilter(4)
	inn, err := f.Update([]float64{2, 2}, []float64{0, 0}, direct(), mat.Diag(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := f.State()[i]; math.Abs(got-1.6) > 1e-12 {
			t.Fatalf("x1[%d] = %v, want 1.6", i, got)
		}
		if got := f.P().At(i, i); math.Abs(got-0.8) > 1e-12 {
			t.Fatalf("P1[%d][%d] = %v, want 0.8", i, i, got)
		}
		if math.Abs(inn.Residual[i]-2) > 1e-12 {
			t.Fatalf("residual[%d] = %v", i, inn.Residual[i])
		}
		if math.Abs(inn.Sigma[i]-math.Sqrt(5)) > 1e-12 {
			t.Fatalf("sigma[%d] = %v, want sqrt(5)", i, inn.Sigma[i])
		}
	}
	if got := f.P().At(0, 1); got != 0 {
		t.Fatalf("P1[0][1] = %v, want 0", got)
	}
	// ν·S⁻¹·ν = 4/5 on each axis.
	if math.Abs(inn.Mahalanobis-math.Sqrt(8.0/5)) > 1e-12 {
		t.Fatalf("mahalanobis = %v, want sqrt(8/5)", inn.Mahalanobis)
	}
}

func TestPredictAdditive(t *testing.T) {
	f := New(2)
	f.SetP(mat.Diag(1, 2))
	f.SetState([]float64{5, 6})
	f.PredictAdditive([]float64{0.1, 0.2})
	if x := f.State(); x[0] != 5 || x[1] != 6 {
		t.Fatalf("additive predict moved state: %v", x)
	}
	if got := f.P().At(0, 0); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("P00 = %v", got)
	}
	if got := f.P().At(1, 1); math.Abs(got-2.2) > 1e-12 {
		t.Fatalf("P11 = %v", got)
	}
}

func TestTrackingRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := scalarFilter(1)
	q, r := 0.01, 0.2
	Q := []float64{q * q, q * q}
	R := mat.Diag(r*r, r*r)
	H := direct()
	truth := make([]float64, 2)
	z := make([]float64, 2)
	var errSq [2]float64
	n := 5000
	for i := 0; i < n; i++ {
		for a := range truth {
			truth[a] += rng.NormFloat64() * q
			z[a] = truth[a] + rng.NormFloat64()*r
		}
		f.PredictAdditive(Q)
		if _, err := f.Update(z, f.State(), H, R); err != nil {
			t.Fatal(err)
		}
		for a, v := range f.State() {
			e := v - truth[a]
			errSq[a] += e * e
		}
	}
	for a, sq := range errSq {
		rmse := math.Sqrt(sq / float64(n))
		// Steady-state error must be well below raw measurement noise.
		if rmse > r/2 {
			t.Fatalf("state %d: tracking RMSE %v not better than half measurement noise %v", a, rmse, r)
		}
		// And consistent with the filter's own reported sigma.
		if sigma := f.Sigma(a); rmse > 3*sigma {
			t.Fatalf("state %d: RMSE %v inconsistent with reported sigma %v", a, rmse, sigma)
		}
	}
}

func TestCovarianceStaysSymmetricPD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5
	f := New(n)
	f.SetP(mat.Diag(1, 1, 1, 1, 1))
	Q := []float64{1e-6, 1e-6, 1e-6, 1e-6, 1e-6}
	R := mat.Diag(0.01, 0.01)
	for iter := 0; iter < 2000; iter++ {
		f.PredictAdditive(Q)
		// Random 2×5 measurement.
		H := mat.New(2, n)
		for i := 0; i < 2; i++ {
			for j := 0; j < n; j++ {
				H.Set(i, j, rng.NormFloat64())
			}
		}
		z := []float64{rng.NormFloat64(), rng.NormFloat64()}
		h := H.MulVec(f.State())
		if _, err := f.Update(z, h, H, R); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		p := f.P()
		if !p.Equal(p.T(), 1e-12) {
			t.Fatalf("iter %d: P not symmetric", iter)
		}
		if _, err := mat.CholeskyFactor(p.AddM(mat.Identity(n).Scale(1e-12))); err != nil {
			t.Fatalf("iter %d: P not PSD: %v", iter, err)
		}
	}
}

func TestInnovationOnlyDoesNotMutate(t *testing.T) {
	f := scalarFilter(4)
	f.SetState([]float64{1, 1})
	inn, err := f.InnovationOnly([]float64{3, 3}, []float64{1, 1}, direct(), mat.Diag(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if x := f.State(); x[0] != 1 || x[1] != 1 || !f.P().Equal(mat.Diag(4, 4), 0) {
		t.Fatal("InnovationOnly mutated the filter")
	}
	for i := 0; i < 2; i++ {
		if math.Abs(inn.Residual[i]-2) > 1e-12 || math.Abs(inn.Sigma[i]-math.Sqrt(5)) > 1e-12 {
			t.Fatalf("innovation = %+v", inn)
		}
	}
}

func TestExceeds3Sigma(t *testing.T) {
	cases := []struct {
		res, sig []float64
		want     bool
	}{
		{[]float64{1.6, 0}, []float64{0.5, 1}, true},     // 1.6 > 1.5
		{[]float64{1.4, 0}, []float64{0.5, 1}, false},    // 1.4 < 1.5
		{[]float64{0, -3.1}, []float64{0.5, 1}, true},    // negative side
		{[]float64{1.0, -2.9}, []float64{0.5, 1}, false}, // both inside
		{[]float64{-1.6, 3.1}, []float64{0.5, 1}, true},  // both outside
	}
	for i, c := range cases {
		in := Innovation{Residual: c.res, Sigma: c.sig}
		if got := in.Exceeds3Sigma(); got != c.want {
			t.Errorf("case %d: Exceeds3Sigma = %v, want %v", i, got, c.want)
		}
	}
}

func Test3SigmaExceedanceRateCalibrated(t *testing.T) {
	// With correctly modelled noise, |residual| > 3σ should occur with
	// probability ~0.0027 per scalar sample (the paper's "once every
	// 100 samples" is a loose engineering bound), so ~0.0054 per epoch
	// of two independent axes.
	rng := rand.New(rand.NewSource(4))
	f := scalarFilter(1)
	H := direct()
	r := 0.1
	R := mat.Diag(r*r, r*r)
	truth := []float64{0.5, -0.3}
	z := make([]float64, 2)
	count, total := 0, 0
	for i := 0; i < 30000; i++ {
		for a, v := range truth {
			z[a] = v + rng.NormFloat64()*r
		}
		inn, err := f.Update(z, f.State(), H, R)
		if err != nil {
			t.Fatal(err)
		}
		if i > 100 { // after convergence
			total++
			if inn.Exceeds3Sigma() {
				count++
			}
		}
	}
	rate := float64(count) / float64(total)
	if rate > 0.01 {
		t.Fatalf("3σ exceedance rate %v too high for consistent filter", rate)
	}
}

func TestUpdateShapeMismatchPanics(t *testing.T) {
	f := New(2)
	f.SetP(mat.Diag(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	f.Update([]float64{1, 1}, []float64{0, 0}, mat.New(2, 3), mat.Diag(1, 1))
}

// TestOtherMeasurementCountsPanic checks that Update and InnovationOnly
// refuse any number of measurements but two, with shapes that are
// otherwise consistent.
func TestOtherMeasurementCountsPanic(t *testing.T) {
	const n = 7
	for _, m := range []int{1, 3, 6} {
		H := mat.New(m, n)
		R := mat.New(m, m)
		for a := 0; a < m; a++ {
			H.Set(a, a, 1)
			R.Set(a, a, 0.01)
		}
		z, h := make([]float64, m), make([]float64, m)
		for name, call := range map[string]func(f *Filter){
			"Update":         func(f *Filter) { f.Update(z, h, H, R) },
			"InnovationOnly": func(f *Filter) { f.InnovationOnly(z, h, H, R) },
		} {
			f := New(n)
			f.SetPDiag([]float64{1, 1, 1, 1, 1, 1, 1})
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with %d measurements did not panic", name, m)
					}
				}()
				call(f)
			}()
		}
	}
}

func TestIllConditionedReturnsError(t *testing.T) {
	f := scalarFilter(0) // zero covariance
	R := mat.Diag(0, 0)  // zero noise → S = 0
	if _, err := f.Update([]float64{1, 1}, []float64{0, 0}, direct(), R); err != ErrIllConditioned {
		t.Fatalf("err = %v, want ErrIllConditioned", err)
	}
}

func TestSettersValidate(t *testing.T) {
	f := New(2)
	for _, fn := range []func(){
		func() { f.SetState([]float64{1}) },
		func() { f.SetP(mat.Diag(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad shape did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestStateReturnsCopy(t *testing.T) {
	f := New(1)
	s := f.State()
	s[0] = 99
	if f.State()[0] != 0 {
		t.Fatal("State aliases internal slice")
	}
	p := f.P()
	p.Set(0, 0, 99)
	if f.P().At(0, 0) != 0 {
		t.Fatal("P aliases internal matrix")
	}
}

func TestJosephFormRobustToLargePriorRatio(t *testing.T) {
	// Standard-form covariance updates go slightly negative when
	// P >> R; Joseph form must not.
	f := scalarFilter(1e12)
	H := direct()
	R := mat.Diag(1e-6, 1e-6)
	for i := 0; i < 10; i++ {
		if _, err := f.Update([]float64{1, 1}, f.State(), H, R); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 2; a++ {
			if v := f.P().At(a, a); v < 0 {
				t.Fatalf("covariance P[%d][%d] went negative: %v", a, a, v)
			}
		}
	}
}

// benchUpdate times one predict-update epoch of an n-state filter with
// two measurements, the boresight filter's shape. The additive
// prediction keeps P from collapsing over b.N updates; the predicted
// measurement reuses buffers, so allocs/op is the filter's own.
func benchUpdate(b *testing.B, n int) {
	f := New(n)
	diag := make([]float64, n)
	q := make([]float64, n)
	for i := range diag {
		diag[i] = 1
		q[i] = 1e-6
	}
	f.SetPDiag(diag)
	H := mat.New(2, n)
	H.Set(0, 0, 1)
	H.Set(1, 1, 1)
	R := mat.Diag(0.01, 0.01)
	z := []float64{0.1, -0.1}
	x := make([]float64, n)
	h := make([]float64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.PredictAdditive(q)
		f.StateInto(x)
		mat.MulVecTo(h, H, x)
		if _, err := f.Update(z, h, H, R); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdate7State2Meas(b *testing.B)  { benchUpdate(b, 7) }
func BenchmarkUpdate16State2Meas(b *testing.B) { benchUpdate(b, 16) }

// TestGainMatchesRowSolves pins Commit's gain solve to the row-by-row
// form: on random SPD innovation covariances, every entry of K and the
// Mahalanobis distance equal n separate mat.Cholesky solves bit for
// bit.
func TestGainMatchesRowSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n, m = 9, 2
	for trial := 0; trial < 20; trial++ {
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		p := a.MulT(a)
		for i := 0; i < n; i++ {
			p.Set(i, i, p.At(i, i)+0.1)
		}
		H := mat.New(m, n)
		B := mat.New(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				H.Set(i, j, rng.NormFloat64())
			}
			for j := 0; j < m; j++ {
				B.Set(i, j, 0.1*rng.NormFloat64())
			}
		}
		R := B.MulT(B)
		for i := 0; i < m; i++ {
			R.Set(i, i, R.At(i, i)+1e-3)
		}
		z := make([]float64, m)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		f := New(n)
		f.SetP(p)
		inn, err := f.InnovationOnly(z, make([]float64, m), H, R)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		chol, err := mat.CholeskyFactor(inn.S)
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Sqrt(math.Max(0, mat.Dot(inn.Residual, chol.SolveVec(inn.Residual)))); math.Float64bits(inn.Mahalanobis) != math.Float64bits(want) {
			t.Errorf("trial %d: Mahalanobis %v, row solve gives %v", trial, inn.Mahalanobis, want)
		}
		ut := append([]float64(nil), f.ut...)
		f.Commit()
		u := make([]float64, m)
		for i := 0; i < n; i++ {
			for a := range u {
				u[a] = ut[a*n+i]
			}
			k := chol.SolveVec(u)
			for a, v := range k {
				if got := f.kt[a*n+i]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("trial %d: K[%d][%d] = %v, row solve gives %v", trial, i, a, got, v)
				}
			}
		}
	}
}
