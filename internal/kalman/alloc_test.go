package kalman

import (
	"testing"

	"boresight/internal/mat"
)

// TestKalmanStepsAllocFree pins the package's zero-allocation contract:
// with the scratch workspace sized in New, PredictAdditive, Update,
// InnovationOnly and InnovationOnly followed by Commit must not touch
// the heap.
// The benchmark-regression harness keeps this honest over time; this
// test makes a violation a plain test failure.
func TestKalmanStepsAllocFree(t *testing.T) {
	const n, m = 7, 2
	f := New(n)
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 1
	}
	f.SetP(mat.Diag(diag...))

	Q := make([]float64, n)
	for i := range Q {
		Q[i] = 1e-6
	}
	H := mat.New(m, n)
	H.Set(0, 1, -9.5)
	H.Set(0, 2, 0.3)
	H.Set(1, 0, 9.5)
	H.Set(1, 2, -0.2)
	H.Set(0, 3, 1)
	H.Set(1, 4, 1)
	R := mat.Diag(0.01, 0.01)
	z := []float64{0.2, -0.1}
	h := []float64{0.0, 0.0}

	xbuf := make([]float64, n)
	pbuf := mat.New(n, n)
	cases := []struct {
		name string
		fn   func()
	}{
		{"PredictAdditive", func() { f.PredictAdditive(Q) }},
		{"Update", func() {
			if _, err := f.Update(z, h, H, R); err != nil {
				panic(err)
			}
		}},
		{"InnovationOnly", func() {
			if _, err := f.InnovationOnly(z, h, H, R); err != nil {
				panic(err)
			}
		}},
		{"InnovationOnly+Commit", func() {
			if _, err := f.InnovationOnly(z, h, H, R); err != nil {
				panic(err)
			}
			f.Commit()
		}},
		{"StateInto+PInto", func() { f.StateInto(xbuf); f.PInto(pbuf) }},
	}

	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/run, want 0", c.name, allocs)
		}
	}
}

// TestInnovationScratchReuse documents the aliasing rule: the
// Innovation returned by Update borrows the filter's scratch, so a
// second call overwrites the first result's backing storage.
func TestInnovationScratchReuse(t *testing.T) {
	f := New(2)
	f.SetP(mat.Diag(4, 4))
	H := mat.FromRows([]float64{1, 0}, []float64{0, 1})
	R := mat.Diag(1, 1)
	first, err := f.Update([]float64{2, 2}, []float64{0, 0}, H, R)
	if err != nil {
		t.Fatal(err)
	}
	firstResidual := first.Residual[0]
	second, err := f.Update([]float64{5, 5}, []float64{0, 0}, H, R)
	if err != nil {
		t.Fatal(err)
	}
	if &first.Residual[0] != &second.Residual[0] {
		t.Fatal("expected Update results to share scratch storage")
	}
	if first.Residual[0] == firstResidual {
		t.Fatal("expected the second update to overwrite the first result's storage")
	}
}
