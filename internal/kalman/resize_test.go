package kalman

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/mat"
)

// TestResizeRedimensionsAndInvalidatesScratch pins the Resize contract:
// the filter works at the new dimension immediately (measurement scratch
// re-sized with the state), a same-dimension Resize keeps the state, and
// a dimension change zeroes it for the caller to re-seed.
func TestResizeRedimensionsAndInvalidatesScratch(t *testing.T) {
	f := New(3)
	f.SetP(mat.Diag(1, 1, 1))
	H := mat.FromRows([]float64{1, 0, 0}, []float64{0, 1, 0})
	R2 := mat.Diag(0.01, 0.01)
	if _, err := f.Update([]float64{0.5, -0.5}, []float64{0, 0}, H, R2); err != nil {
		t.Fatal(err)
	}

	// Same-dimension resize: a no-op that keeps state and covariance.
	xBefore := f.State()
	pBefore := f.P()
	f.Resize(3)
	if f.Dim() != 3 {
		t.Fatalf("Dim = %d after same-size Resize", f.Dim())
	}
	for i, v := range f.State() {
		if v != xBefore[i] {
			t.Fatal("same-size Resize changed the state")
		}
	}
	if !f.P().Equal(pBefore, 0) {
		t.Fatal("same-size Resize changed the covariance")
	}

	// Grow to 5: state zeroed, updates run at the new shape.
	f.Resize(5)
	if f.Dim() != 5 {
		t.Fatalf("Dim = %d, want 5", f.Dim())
	}
	for _, v := range f.State() {
		if v != 0 {
			t.Fatal("Resize did not zero the state")
		}
	}
	f.SetP(mat.Diag(1, 1, 1, 1, 1))
	H5 := mat.New(2, 5)
	H5.Set(0, 0, 1)
	H5.Set(1, 4, 1)
	if _, err := f.Update([]float64{1, -1}, []float64{0, 0}, H5, R2); err != nil {
		t.Fatal(err)
	}
	x := f.State()
	if x[0] <= 0 || x[4] >= 0 {
		t.Fatalf("post-resize update did not move the measured states: %v", x)
	}

	// Shrink back down; the measurement scratch must re-size again.
	f.Resize(2)
	f.SetP(mat.Diag(4, 4))
	H2 := mat.FromRows([]float64{1, 0}, []float64{0, 1})
	if _, err := f.Update([]float64{1, 2}, []float64{0, 0}, H2, R2); err != nil {
		t.Fatal(err)
	}
	if f.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", f.Dim())
	}
}

func TestResizeRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resize(0) did not panic")
		}
	}()
	New(3).Resize(0)
}

// TestNEESKnownValues checks the NEES statistic against hand-computed
// quadratic forms.
func TestNEESKnownValues(t *testing.T) {
	f := New(2)
	f.SetP(mat.Diag(4, 9))
	got, err := f.NEES([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// eᵀP⁻¹e = 4/4 + 9/9 = 2.
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("NEES = %v, want 2", got)
	}

	// A correlated covariance: P = [[2,1],[1,2]], e = (1,1) →
	// P⁻¹e = (1/3, 1/3), NEES = 2/3.
	f.SetP(mat.FromRows([]float64{2, 1}, []float64{1, 2}))
	got, err = f.NEES([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("NEES = %v, want 2/3", got)
	}
}

// TestNEESConsistentFilterIsChiSquare drives a linear filter with
// truth-model noise and checks the empirical mean NEES sits near the
// state dimension — the textbook consistency property the statistical
// harness leans on.
func TestNEESConsistentFilterIsChiSquare(t *testing.T) {
	const n = 2
	const runs = 40
	rng := rand.New(rand.NewSource(9))
	H := mat.FromRows([]float64{1, 0}, []float64{0, 1})
	R := mat.Diag(0.04, 0.04)
	Q := []float64{1e-6, 1e-6}
	sum := 0.0
	for r := 0; r < runs; r++ {
		truth := []float64{rng.NormFloat64(), rng.NormFloat64()}
		f := New(n)
		f.SetP(mat.Diag(1, 1))
		for k := 0; k < 200; k++ {
			f.PredictAdditive(Q)
			z := []float64{truth[0] + 0.2*rng.NormFloat64(), truth[1] + 0.2*rng.NormFloat64()}
			if _, err := f.Update(z, f.State(), H, R); err != nil {
				t.Fatal(err)
			}
		}
		x := f.State()
		e := []float64{x[0] - truth[0], x[1] - truth[1]}
		v, err := f.NEES(e)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	mean := sum / runs
	// Mean of 40 χ²(2) samples: 99.9% interval is roughly [1.0, 3.3].
	if mean < 0.8 || mean > 3.5 {
		t.Fatalf("mean NEES %v far from dimension 2: filter inconsistent", mean)
	}
}

func TestNEESWrongLengthPanics(t *testing.T) {
	f := New(3)
	f.SetP(mat.Diag(1, 1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("NEES accepted a wrong-length error vector")
		}
	}()
	f.NEES([]float64{1})
}

func TestNEESSingularCovariance(t *testing.T) {
	f := New(2) // P is all zeros
	if _, err := f.NEES([]float64{1, 1}); err == nil {
		t.Fatal("NEES accepted a singular covariance")
	}
}
