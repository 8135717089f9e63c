package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d,%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestDiag(t *testing.T) {
	m := Diag(1, 2, 3)
	if m.Rows() != 3 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 2 || m.At(2, 2) != 3 || m.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", m)
	}
}

func TestFromSliceAndRows(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromRows([]float64{1, 2, 3}, []float64{4, 5, 6})
	if !a.Equal(b, 0) {
		t.Fatalf("FromSlice %v != FromRows %v", a, b)
	}
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", a.At(1, 2))
	}
}

func TestFromSliceWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([]float64{1, 2}, []float64{3})
}

func TestSetAddAt(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if m.At(0, 1) != 7.5 {
		t.Fatalf("At = %v, want 7.5", m.At(0, 1))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok {
					t.Fatalf("At(%d,%d) did not panic with an error", idx[0], idx[1])
				}
				want := fmt.Sprintf("mat: index (%d,%d) out of range for 2x2", idx[0], idx[1])
				if err.Error() != want {
					t.Fatalf("At(%d,%d) panicked with %q, want %q", idx[0], idx[1], err, want)
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestCopy(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := New(2, 2)
	b.Copy(a)
	if !a.Equal(b, 0) {
		t.Fatal("Copy mismatch")
	}
}

func TestRowColAccessors(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r := a.Row(1)
	if r[0] != 4 || r[1] != 5 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	c := a.Col(2)
	if c[0] != 3 || c[1] != 6 {
		t.Fatalf("Col(2) = %v", c)
	}
	// Mutating the returned slices must not affect the matrix.
	r[0] = 100
	c[0] = 100
	if a.At(1, 0) != 4 || a.At(0, 2) != 3 {
		t.Fatal("Row/Col alias matrix data")
	}
	a.SetRow(0, []float64{7, 8, 9})
	if a.At(0, 1) != 8 {
		t.Fatal("SetRow failed")
	}
}

func TestDiagonal(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	d := a.Diagonal()
	if len(d) != 2 || d[0] != 1 || d[1] != 5 {
		t.Fatalf("Diagonal = %v", d)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{4, 3, 2, 1})
	sum := a.AddM(b)
	if sum.At(0, 0) != 5 || sum.At(1, 1) != 5 {
		t.Fatalf("AddM = %v", sum)
	}
	diff := a.SubM(b)
	if diff.At(0, 0) != -3 || diff.At(1, 1) != 3 {
		t.Fatalf("SubM = %v", diff)
	}
	sc := a.Scale(2)
	if sc.At(1, 0) != 6 {
		t.Fatalf("Scale = %v", sc)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.Mul(b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestMulTAndTMulAgainstExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMat(rng, r, k)
		b := randMat(rng, c, k) // for MulT: a * bᵀ
		if got, want := a.MulT(b), a.Mul(b.T()); !got.Equal(want, 1e-12) {
			t.Fatalf("MulT mismatch:\n%v\n%v", got, want)
		}
		d := randMat(rng, r, c) // for TMul: aᵀ * d requires a r x k, d r x c
		if got, want := a.TMul(d), a.T().Mul(d); !got.Equal(want, 1e-12) {
			t.Fatalf("TMul mismatch:\n%v\n%v", got, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 4, 7)
	if !a.T().T().Equal(a, 0) {
		t.Fatal("Tᵀᵀ != A")
	}
}

func TestMulVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := a.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 4, 3})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize = %v", a)
	}
}

func TestTraceMaxAbs(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, -9, 4, 3})
	if a.Trace() != 4 {
		t.Fatalf("Trace = %v", a.Trace())
	}
	if a.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestStringFormat(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if s := a.String(); s != "2x2[1 2; 3 4]" {
		t.Fatalf("String = %q", s)
	}
}

// Property: (A*B)*C == A*(B*C) for random small matrices.
func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		m, n, p, q := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b, c := randMat(rng, m, n), randMat(rng, n, p), randMat(rng, p, q)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		if !left.Equal(right, 1e-9) {
			t.Fatalf("associativity failed at sizes %d %d %d %d", m, n, p, q)
		}
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 100; iter++ {
		m, n, p := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := randMat(rng, m, n), randMat(rng, n, p)
		if !a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-10) {
			t.Fatal("(AB)ᵀ != BᵀAᵀ")
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := FromSlice(3, 3, []float64{2, 1, 1, 1, 3, 2, 1, 0, 0})
	b := []float64{4, 5, 6}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveVec(b)
	// Verify A*x == b.
	back := a.MulVec(x)
	for i := range b {
		if !almostEq(back[i], b[i], 1e-10) {
			t.Fatalf("A*x = %v, want %v", back, b)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 4})
	if _, err := Factor(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if Det(a) != 0 {
		t.Fatalf("Det(singular) = %v", Det(a))
	}
}

func TestDetKnown(t *testing.T) {
	a := FromSlice(2, 2, []float64{3, 8, 4, 6})
	if d := Det(a); !almostEq(d, -14, 1e-10) {
		t.Fatalf("Det = %v, want -14", d)
	}
	// Identity determinant is 1, permutation sign handled.
	if d := Det(Identity(5)); !almostEq(d, 1, 1e-12) {
		t.Fatalf("Det(I) = %v", d)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(6)
		a := randMat(rng, n, n)
		// Make it well conditioned by adding n*I.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		if !a.Mul(inv).Equal(Identity(n), 1e-8) {
			t.Fatalf("A*A⁻¹ != I for n=%d", n)
		}
		if !inv.Mul(a).Equal(Identity(n), 1e-8) {
			t.Fatalf("A⁻¹*A != I for n=%d", n)
		}
	}
}

func TestSolveMatrixRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 4, 4)
	for i := 0; i < 4; i++ {
		a.Add(i, i, 6)
	}
	b := randMat(rng, 4, 3)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(x).Equal(b, 1e-9) {
		t.Fatal("A*X != B")
	}
}

func makeSPD(rng *rand.Rand, n int) *Mat {
	a := randMat(rng, n, n)
	spd := a.MulT(a) // A*Aᵀ is PSD; add I for PD.
	for i := 0; i < n; i++ {
		spd.Add(i, i, 1)
	}
	return spd
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(6)
		spd := makeSPD(rng, n)
		ch, err := CholeskyFactor(spd)
		if err != nil {
			t.Fatalf("CholeskyFactor: %v", err)
		}
		l := ch.L()
		if !l.MulT(l).Equal(spd, 1e-8) {
			t.Fatalf("L*Lᵀ != A for n=%d", n)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatal("L not lower triangular")
				}
			}
		}
	}
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(6)
		spd := makeSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := CholeskyFactor(spd)
		if err != nil {
			t.Fatal(err)
		}
		lu, err := Factor(spd)
		if err != nil {
			t.Fatal(err)
		}
		x1, x2 := ch.SolveVec(b), lu.SolveVec(b)
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-7) {
				t.Fatalf("Cholesky vs LU solution mismatch: %v vs %v", x1, x2)
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := CholeskyFactor(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spd := makeSPD(rng, 5)
	b := randMat(rng, 5, 2)
	ch, err := CholeskyFactor(spd)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(b)
	if !spd.Mul(x).Equal(b, 1e-8) {
		t.Fatal("A*X != B via Cholesky")
	}
}

func TestVecOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if s := AddVec(a, b); s[2] != 9 {
		t.Fatalf("AddVec = %v", s)
	}
	if d := SubVec(b, a); d[0] != 3 {
		t.Fatalf("SubVec = %v", d)
	}
	if s := ScaleVec(2, a); s[1] != 4 {
		t.Fatalf("ScaleVec = %v", s)
	}
	if n := Norm([]float64{3, 4}); n != 5 {
		t.Fatalf("Norm = %v", n)
	}
}

func TestCrossProduct(t *testing.T) {
	x := []float64{1, 0, 0}
	y := []float64{0, 1, 0}
	z := Cross(x, y)
	if z[0] != 0 || z[1] != 0 || z[2] != 1 {
		t.Fatalf("x cross y = %v", z)
	}
	// Anti-commutativity.
	w := Cross(y, x)
	if w[2] != -1 {
		t.Fatalf("y cross x = %v", w)
	}
}

// Property via testing/quick: cross product is perpendicular to both
// inputs.
func TestCrossPerpendicularQuick(t *testing.T) {
	f := func(a0, a1, a2, b0, b1, b2 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e3)
		}
		a := []float64{clamp(a0), clamp(a1), clamp(a2)}
		b := []float64{clamp(b0), clamp(b1), clamp(b2)}
		c := Cross(a, b)
		scale := Norm(a)*Norm(b) + 1
		return math.Abs(Dot(a, c))/scale < 1e-9 && math.Abs(Dot(b, c))/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOuterVec(t *testing.T) {
	m := OuterVec([]float64{1, 2}, []float64{3, 4, 5})
	want := FromSlice(2, 3, []float64{3, 4, 5, 6, 8, 10})
	if !m.Equal(want, 0) {
		t.Fatalf("OuterVec = %v", m)
	}
}

func TestColRowVec(t *testing.T) {
	c := ColVec([]float64{1, 2, 3})
	if c.Rows() != 3 || c.Cols() != 1 || c.At(2, 0) != 3 {
		t.Fatalf("ColVec = %v", c)
	}
	r := RowVec([]float64{1, 2, 3})
	if r.Rows() != 1 || r.Cols() != 3 || r.At(0, 2) != 3 {
		t.Fatalf("RowVec = %v", r)
	}
}

// Property via testing/quick: determinant of a 2x2 matches the closed form.
func TestDet2x2Quick(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e3)
		}
		a, b, c, d = clamp(a), clamp(b), clamp(c), clamp(d)
		m := FromSlice(2, 2, []float64{a, b, c, d})
		want := a*d - b*c
		got := Det(m)
		scale := math.Abs(want) + 1
		return math.Abs(got-want)/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul7x7(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randMat(rng, 7, 7)
	y := randMat(rng, 7, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkCholesky7x7(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	spd := makeSPD(rng, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CholeskyFactor(spd); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPanicPaths(t *testing.T) {
	a := New(2, 2)
	b := New(3, 3)
	for name, fn := range map[string]func(){
		"Copy":     func() { a.Copy(b) },
		"SetRow":   func() { a.SetRow(0, []float64{1}) },
		"Row":      func() { a.Row(5) },
		"Col":      func() { a.Col(5) },
		"AddM":     func() { a.AddM(b) },
		"TMul":     func() { a.TMul(b) },
		"MulT":     func() { a.MulT(b) },
		"MulVec":   func() { a.MulVec([]float64{1}) },
		"Trace":    func() { New(2, 3).Trace() },
		"SymmNS":   func() { New(2, 3).Symmetrize() },
		"Dot":      func() { Dot([]float64{1}, []float64{1, 2}) },
		"AddVec":   func() { AddVec([]float64{1}, []float64{1, 2}) },
		"SubVec":   func() { SubVec([]float64{1}, []float64{1, 2}) },
		"Cross":    func() { Cross([]float64{1}, []float64{1, 2, 3}) },
		"Factor":   func() { Factor(New(2, 3)) },
		"Chol":     func() { CholeskyFactor(New(2, 3)) },
		"SolveVec": func() { mustLU(t).SolveVec([]float64{1}) },
		"Solve":    func() { mustLU(t).Solve(New(5, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func mustLU(t *testing.T) *LU {
	f, err := Factor(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInverseSolveSingularErrors(t *testing.T) {
	sing := FromSlice(2, 2, []float64{1, 2, 2, 4})
	if _, err := Inverse(sing); err != ErrSingular {
		t.Fatalf("Inverse err = %v", err)
	}
	if _, err := Solve(sing, Identity(2)); err != ErrSingular {
		t.Fatalf("Solve err = %v", err)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 2).Equal(New(2, 3), 1) {
		t.Fatal("shape mismatch reported equal")
	}
}

// TestCholeskySolveRowsColumns pins SolveRowsTo's contract: each
// column of a whole-row solve has the bits of the one-column solve of
// that column, so a caller may solve all its right-hand sides at once.
func TestCholeskySolveRowsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{1, 2, 6} {
		ch, err := CholeskyFactor(makeSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 3, 7} {
			b := randMat(rng, n, w)
			x := append([]float64(nil), b.data...)
			ch.SolveRowsTo(x, w)
			col := make([]float64, n)
			for k := 0; k < w; k++ {
				for i := range col {
					col[i] = b.At(i, k)
				}
				ch.SolveVecTo(col, col)
				for i, v := range col {
					if got := x[i*w+k]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("n=%d w=%d: X[%d][%d] = %v, one-column solve gives %v", n, w, i, k, got, v)
					}
				}
			}
		}
	}
}
