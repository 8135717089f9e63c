package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randMat lives in mat_test.go.

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestInPlaceEquivalence checks every destination-passing kernel
// against its allocating counterpart on random matrices of assorted
// (including non-square) shapes.
func TestInPlaceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ r, k, c int }{
		{1, 1, 1}, {2, 3, 4}, {5, 2, 7}, {4, 4, 4}, {7, 7, 7}, {3, 8, 2},
	}
	for _, sh := range shapes {
		a := randMat(rng, sh.r, sh.k)
		b := randMat(rng, sh.k, sh.c)
		dst := New(sh.r, sh.c)
		// Pre-fill dst with garbage: the kernels must overwrite, not
		// accumulate into, stale contents.
		for i := range dst.data {
			dst.data[i] = 99
		}
		MulTo(dst, a, b)
		if !dst.Equal(a.Mul(b), 1e-14) {
			t.Errorf("MulTo %dx%dx%d mismatch", sh.r, sh.k, sh.c)
		}

		bt := randMat(rng, sh.c, sh.k)
		dst = New(sh.r, sh.c)
		MulTTo(dst, a, bt)
		if !dst.Equal(a.MulT(bt), 1e-14) {
			t.Errorf("MulTTo %dx%dx%d mismatch", sh.r, sh.k, sh.c)
		}

		v := randVec(rng, sh.k)
		dv := make([]float64, sh.r)
		MulVecTo(dv, a, v)
		want := a.MulVec(v)
		for i := range dv {
			if math.Abs(dv[i]-want[i]) > 1e-14 {
				t.Errorf("MulVecTo mismatch at %d: %v vs %v", i, dv[i], want[i])
			}
		}

		dt := New(sh.k, sh.r)
		TransposeTo(dt, a)
		if !dt.Equal(a.T(), 0) {
			t.Errorf("TransposeTo %dx%d mismatch", sh.r, sh.k)
		}

		c := randMat(rng, sh.r, sh.k)
		dst = New(sh.r, sh.k)
		AddMTo(dst, a, c)
		if !dst.Equal(a.AddM(c), 0) {
			t.Errorf("AddMTo mismatch")
		}
		SubMTo(dst, a, c)
		if !dst.Equal(a.SubM(c), 0) {
			t.Errorf("SubMTo mismatch")
		}
		ScaleTo(dst, -2.5, a)
		if !dst.Equal(a.Scale(-2.5), 0) {
			t.Errorf("ScaleTo mismatch")
		}
	}
}

// TestElementwiseAliasing checks the documented guarantee that the
// element-wise kernels accept dst aliasing their operands.
func TestElementwiseAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 4, 5)
	b := randMat(rng, 4, 5)
	want := a.AddM(b)
	acc := a.Clone()
	AddMTo(acc, acc, b) // dst == a
	if !acc.Equal(want, 0) {
		t.Fatal("AddMTo with dst==a mismatch")
	}
	acc = b.Clone()
	AddMTo(acc, a, acc) // dst == b
	if !acc.Equal(want, 0) {
		t.Fatal("AddMTo with dst==b mismatch")
	}
	acc = a.Clone()
	SubMTo(acc, acc, b)
	if !acc.Equal(a.SubM(b), 0) {
		t.Fatal("SubMTo with dst==a mismatch")
	}
	acc = a.Clone()
	ScaleTo(acc, 3, acc)
	if !acc.Equal(a.Scale(3), 0) {
		t.Fatal("ScaleTo with dst==a mismatch")
	}

	x := randVec(rng, 6)
	y := randVec(rng, 6)
	gotV := append([]float64(nil), x...)
	SubVecTo(gotV, gotV, y)
	for i := range x {
		if gotV[i] != x[i]-y[i] {
			t.Fatal("SubVecTo with dst==a mismatch")
		}
	}
}

// TestProductAliasPanics checks the documented guarantee that the
// product/transpose kernels reject an aliased destination with a
// descriptive panic rather than silently corrupting the result.
func TestProductAliasPanics(t *testing.T) {
	a := Identity(3)
	b := Identity(3)
	v := make([]float64, 3)
	cases := []struct {
		name string
		fn   func()
	}{
		{"MulTo dst==a", func() { MulTo(a, a, b) }},
		{"MulTo dst==b", func() { MulTo(b, a, b) }},
		{"MulTTo dst==a", func() { MulTTo(a, a, b) }},
		{"TransposeTo dst==a", func() { TransposeTo(a, a) }},
		{"MulVecTo dst==v", func() { MulVecTo(v, a, v) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic, got none", c.name)
				}
			}()
			c.fn()
		}()
	}
}

// TestSolveToEquivalence checks the reusable Cholesky solves —
// including dst aliasing b — against the allocating API.
func TestSolveToEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 5, 9} {
		a := randMat(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // diagonally dominant: well-conditioned
		}
		b := randVec(rng, n)

		bm := randMat(rng, n, 3)

		// SPD system for Cholesky: a·aᵀ + n·I.
		spd := a.MulT(a)
		for i := 0; i < n; i++ {
			spd.Add(i, i, float64(n))
		}
		ch := NewCholesky(n)
		if err := ch.Factorize(spd); err != nil {
			t.Fatalf("n=%d: Cholesky Factorize: %v", n, err)
		}
		wantC := ch.SolveVec(b)
		inpl := append([]float64(nil), b...)
		ch.SolveVecTo(inpl, inpl)
		for i := range wantC {
			if math.Abs(inpl[i]-wantC[i]) > 1e-12 {
				t.Fatalf("n=%d: in-place Cholesky SolveVecTo mismatch at %d", n, i)
			}
		}
		wantCM := ch.Solve(bm)
		gotM := bm.Clone()
		ch.SolveTo(gotM, gotM)
		if !gotM.Equal(wantCM, 1e-12) {
			t.Fatalf("n=%d: in-place Cholesky SolveTo mismatch", n)
		}

		// Refactorising the same workspace with a different matrix must
		// fully overwrite the previous factorisation.
		spd2 := makeSPD(rng, n)
		if err := ch.Factorize(spd2); err != nil {
			t.Fatalf("n=%d: refactorize: %v", n, err)
		}
		fresh, err := CholeskyFactor(spd2)
		if err != nil {
			t.Fatalf("n=%d: CholeskyFactor: %v", n, err)
		}
		got := make([]float64, n)
		ch.SolveVecTo(got, b)
		want := fresh.SolveVec(b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: reused workspace solve mismatch at %d", n, i)
			}
		}
	}
}

// TestInPlaceKernelsAllocFree asserts the destination-passing kernels
// and reusable factorisations perform zero allocations — the property
// the Kalman scratch workspace is built on.
func TestInPlaceKernelsAllocFree(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(10))
	a := randMat(rng, n, n)
	b := randMat(rng, n, n)
	dst := New(n, n)
	v := randVec(rng, n)
	dv := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, n)
	}
	spd := a.MulT(a)
	ch := NewCholesky(n)

	checks := []struct {
		name string
		fn   func()
	}{
		{"MulTo", func() { MulTo(dst, a, b) }},
		{"MulTTo", func() { MulTTo(dst, a, b) }},
		{"MulVecTo", func() { MulVecTo(dv, a, v) }},
		{"AddMTo", func() { AddMTo(dst, a, b) }},
		{"SubMTo", func() { SubMTo(dst, a, b) }},
		{"ScaleTo", func() { ScaleTo(dst, 2, a) }},
		{"TransposeTo", func() { TransposeTo(dst, a) }},
		{"Cholesky Factorize+SolveTo", func() {
			if err := ch.Factorize(spd); err != nil {
				panic(err)
			}
			ch.SolveVecTo(dv, v)
			ch.SolveTo(dst, b)
		}},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/run, want 0", c.name, allocs)
		}
	}
}
