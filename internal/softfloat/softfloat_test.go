package softfloat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The host CPU implements IEEE-754 round-to-nearest-even, so every
// arithmetic routine can be verified bit-exactly against Go's native
// float operations, including subnormals, infinities and signed zeros.

func f32bits(f float32) F32   { return F32(math.Float32bits(f)) }
func f32val(b F32) float32    { return math.Float32frombits(uint32(b)) }
func bothNaN32(a, b F32) bool { return IsNaN32(a) && IsNaN32(b) }

// randF32 generates float32 bit patterns that exercise all regimes:
// normals, subnormals, zeros, infinities, NaNs, and values with nearby
// exponents (to stress cancellation in add/sub).
func randF32(rng *rand.Rand) F32 {
	switch rng.Intn(10) {
	case 0:
		return F32(rng.Uint32() & 0x807FFFFF) // subnormal or zero
	case 1:
		return F32(0x7F800000 | rng.Uint32()&0x80000000) // +-Inf
	case 2:
		return F32(0x7F800000 | rng.Uint32()&0x807FFFFF) // NaN-ish
	case 3:
		// Mid-range exponents for cancellation tests.
		exp := uint32(120 + rng.Intn(16))
		return F32(rng.Uint32()&0x80000000 | exp<<23 | rng.Uint32()&0x007FFFFF)
	default:
		return F32(rng.Uint32())
	}
}

func check32(t *testing.T, op string, a, b, got F32, want float32) {
	t.Helper()
	wantBits := f32bits(want)
	if got == wantBits {
		return
	}
	if bothNaN32(got, wantBits) {
		return // NaN payloads may differ; NaN-ness must agree
	}
	t.Fatalf("%s(%08x, %08x) = %08x (%g), want %08x (%g)",
		op, uint32(a), uint32(b), uint32(got), f32val(got), uint32(wantBits), want)
}

func TestAdd32AgainstHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ctx Context
	for i := 0; i < 200000; i++ {
		a, b := randF32(rng), randF32(rng)
		check32(t, "Add32", a, b, ctx.Add32(a, b), f32val(a)+f32val(b))
	}
}

func TestSub32AgainstHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ctx Context
	for i := 0; i < 200000; i++ {
		a, b := randF32(rng), randF32(rng)
		check32(t, "Sub32", a, b, ctx.Sub32(a, b), f32val(a)-f32val(b))
	}
}

func TestMul32AgainstHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ctx Context
	for i := 0; i < 200000; i++ {
		a, b := randF32(rng), randF32(rng)
		check32(t, "Mul32", a, b, ctx.Mul32(a, b), f32val(a)*f32val(b))
	}
}

func TestDiv32AgainstHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ctx Context
	for i := 0; i < 200000; i++ {
		a, b := randF32(rng), randF32(rng)
		check32(t, "Div32", a, b, ctx.Div32(a, b), f32val(a)/f32val(b))
	}
}

func TestSqrt32AgainstHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ctx Context
	for i := 0; i < 200000; i++ {
		a := randF32(rng)
		want := float32(math.Sqrt(float64(f32val(a))))
		check32(t, "Sqrt32", a, 0, ctx.Sqrt32(a), want)
	}
}

func TestDirectedEdgeCases32(t *testing.T) {
	var ctx Context
	inf := f32bits(float32(math.Inf(1)))
	ninf := f32bits(float32(math.Inf(-1)))
	nzero := f32bits(float32(math.Copysign(0, -1)))
	one := f32bits(1)
	minSub := F32(1)          // smallest positive subnormal
	maxFin := F32(0x7F7FFFFF) // largest finite

	cases := []struct {
		name string
		got  F32
		want float32
	}{
		{"inf+inf", ctx.Add32(inf, inf), float32(math.Inf(1))},
		{"inf + -inf is NaN", ctx.Add32(inf, ninf), float32(math.NaN())},
		{"0 * inf is NaN", ctx.Mul32(0, inf), float32(math.NaN())},
		{"1/0 = inf", ctx.Div32(one, 0), float32(math.Inf(1))},
		{"1/-0 = -inf", ctx.Div32(one, nzero), float32(math.Inf(-1))},
		{"0/0 is NaN", ctx.Div32(0, 0), float32(math.NaN())},
		{"inf/inf is NaN", ctx.Div32(inf, inf), float32(math.NaN())},
		{"sqrt(-1) is NaN", ctx.Sqrt32(f32bits(-1)), float32(math.NaN())},
		{"sqrt(-0) = -0", ctx.Sqrt32(nzero), float32(math.Copysign(0, -1))},
		{"-0 + 0 = 0 (RNE)", ctx.Add32(nzero, 0), 0},
		{"1 - 1 = +0 (RNE)", ctx.Sub32(one, one), 0},
		{"minsub/2 underflows to 0", ctx.Div32(minSub, f32bits(2)), 0},
		{"max*2 overflows", ctx.Mul32(maxFin, f32bits(2)), float32(math.Inf(1))},
		{"max+max overflows", ctx.Add32(maxFin, maxFin), float32(math.Inf(1))},
		{"sqrt(4) = 2", ctx.Sqrt32(f32bits(4)), 2},
		{"sqrt(2)", ctx.Sqrt32(f32bits(2)), float32(math.Sqrt2)},
	}
	for _, c := range cases {
		want := f32bits(c.want)
		if c.got != want && !bothNaN32(c.got, want) {
			t.Errorf("%s: got %08x (%g), want %08x (%g)",
				c.name, uint32(c.got), f32val(c.got), uint32(want), c.want)
		}
	}
}

func TestFlagSideEffects(t *testing.T) {
	var ctx Context
	ctx.Div32(f32bits(1), 0)
	if ctx.Flags&FlagDivByZero == 0 {
		t.Error("1/0 did not raise DivByZero")
	}
	ctx.ClearFlags()
	ctx.Div32(0, 0)
	if ctx.Flags&FlagInvalid == 0 {
		t.Error("0/0 did not raise Invalid")
	}
	ctx.ClearFlags()
	maxFin := F32(0x7F7FFFFF)
	ctx.Mul32(maxFin, maxFin)
	if ctx.Flags&FlagOverflow == 0 || ctx.Flags&FlagInexact == 0 {
		t.Errorf("overflow flags = %b", ctx.Flags)
	}
	ctx.ClearFlags()
	ctx.Mul32(F32(1), F32(1)) // subnormal * subnormal underflows
	if ctx.Flags&FlagUnderflow == 0 {
		t.Errorf("underflow flags = %b", ctx.Flags)
	}
	ctx.ClearFlags()
	ctx.Add32(f32bits(1), f32bits(1)) // exact
	if ctx.Flags != 0 {
		t.Errorf("exact add raised flags %b", ctx.Flags)
	}
	ctx.ClearFlags()
	ctx.Add32(f32bits(1), F32(1)) // 1 + tiny is inexact
	if ctx.Flags&FlagInexact == 0 {
		t.Error("inexact add did not raise Inexact")
	}
}

func TestRoundingModes32(t *testing.T) {
	one := f32bits(1)
	three := f32bits(3)
	// 1/3 is inexact; check each direction.
	down := Context{Rounding: RoundDown}
	up := Context{Rounding: RoundUp}
	zero := Context{Rounding: RoundToZero}
	near := Context{}
	vDown := f32val(down.Div32(one, three))
	vUp := f32val(up.Div32(one, three))
	vZero := f32val(zero.Div32(one, three))
	vNear := f32val(near.Div32(one, three))
	if !(vDown < vUp) {
		t.Fatalf("RoundDown %v !< RoundUp %v", vDown, vUp)
	}
	if vZero != vDown { // positive value: toward zero == down
		t.Fatalf("RoundToZero %v != RoundDown %v for positive", vZero, vDown)
	}
	if vNear != vDown && vNear != vUp {
		t.Fatalf("RNE %v not adjacent", vNear)
	}
	// Negative: toward zero == up.
	mone := f32bits(-1)
	if f32val(zero.Div32(mone, three)) != f32val(up.Div32(mone, three)) {
		t.Fatal("RoundToZero mismatch for negative")
	}
	// Overflow under RoundToZero must give max finite, not inf.
	maxFin := F32(0x7F7FFFFF)
	if got := zero.Mul32(maxFin, f32bits(2)); got != maxFin {
		t.Fatalf("RoundToZero overflow = %08x, want max finite", uint32(got))
	}
	// Overflow under RoundDown (positive) also stays finite.
	if got := down.Mul32(maxFin, f32bits(2)); got != maxFin {
		t.Fatalf("RoundDown overflow = %08x", uint32(got))
	}
	// But RoundUp goes to +inf.
	if got := up.Mul32(maxFin, f32bits(2)); f32val(got) != float32(math.Inf(1)) {
		t.Fatalf("RoundUp overflow = %08x", uint32(got))
	}
}

func TestRoundDownSubtractExactZero(t *testing.T) {
	// x - x == -0 under RoundDown per IEEE.
	ctx := Context{Rounding: RoundDown}
	got := ctx.Sub32(f32bits(1.5), f32bits(1.5))
	if uint32(got) != 0x80000000 {
		t.Fatalf("1.5-1.5 under RoundDown = %08x, want 80000000", uint32(got))
	}
}

func TestComparisons32(t *testing.T) {
	var ctx Context
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50000; i++ {
		a, b := randF32(rng), randF32(rng)
		af, bf := f32val(a), f32val(b)
		if got, want := ctx.Eq32(a, b), af == bf; got != want {
			t.Fatalf("Eq32(%g, %g) = %v", af, bf, got)
		}
		if got, want := ctx.Lt32(a, b), af < bf; got != want {
			t.Fatalf("Lt32(%g, %g) = %v", af, bf, got)
		}
		if got, want := ctx.Le32(a, b), af <= bf; got != want {
			t.Fatalf("Le32(%g, %g) = %v", af, bf, got)
		}
	}
}

func TestIntToF32(t *testing.T) {
	var ctx Context
	cases := []int32{0, 1, -1, 123456, -123456, math.MaxInt32, math.MinInt32,
		1 << 24, 1<<24 + 1, -(1<<24 + 1), 16777217}
	for _, v := range cases {
		got := ctx.IntToF32(v)
		want := f32bits(float32(v))
		if got != want {
			t.Errorf("IntToF32(%d) = %08x, want %08x", v, uint32(got), uint32(want))
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100000; i++ {
		v := int32(rng.Uint32())
		if got, want := ctx.IntToF32(v), f32bits(float32(v)); got != want {
			t.Fatalf("IntToF32(%d) = %08x, want %08x", v, uint32(got), uint32(want))
		}
	}
}

func TestF32ToIntRNE(t *testing.T) {
	var ctx Context
	cases := []struct {
		in   float32
		want int32
	}{
		{0, 0}, {0.4, 0}, {0.5, 0}, {1.5, 2}, {2.5, 2}, {-0.5, 0},
		{-1.5, -2}, {100.49, 100}, {1e9, 1000000000},
		{-2147483648, math.MinInt32},
	}
	for _, c := range cases {
		if got := ctx.F32ToInt(f32bits(c.in)); got != c.want {
			t.Errorf("F32ToInt(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// Overflow clamps and raises invalid.
	ctx.ClearFlags()
	if got := ctx.F32ToInt(f32bits(3e9)); got != math.MaxInt32 {
		t.Errorf("F32ToInt(3e9) = %d", got)
	}
	if ctx.Flags&FlagInvalid == 0 {
		t.Error("overflow conversion did not raise Invalid")
	}
	ctx.ClearFlags()
	if got := ctx.F32ToInt(f32bits(float32(math.NaN()))); got != math.MinInt32 {
		t.Errorf("F32ToInt(NaN) = %d", got)
	}
	if ctx.Flags&FlagInvalid == 0 {
		t.Error("NaN conversion did not raise Invalid")
	}
}

func TestF32ToIntRoundToZero(t *testing.T) {
	ctx := Context{Rounding: RoundToZero}
	cases := []struct {
		in   float32
		want int32
	}{
		{1.9, 1}, {-1.9, -1}, {0.999, 0}, {-0.999, 0},
	}
	for _, c := range cases {
		if got := ctx.F32ToInt(f32bits(c.in)); got != c.want {
			t.Errorf("trunc(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNaNPropagationQuiets(t *testing.T) {
	var ctx Context
	snan := F32(0x7F800001) // signaling
	got := ctx.Add32(snan, f32bits(1))
	if !IsNaN32(got) || IsSignalingNaN32(got) {
		t.Fatalf("sNaN + 1 = %08x, want quiet NaN", uint32(got))
	}
	if ctx.Flags&FlagInvalid == 0 {
		t.Error("sNaN operand did not raise Invalid")
	}
}

func TestClassifiers(t *testing.T) {
	if !IsNaN32(defaultNaN32) || IsNaN32(f32bits(1)) {
		t.Error("IsNaN32 broken")
	}
	if !IsInf32(f32bits(float32(math.Inf(-1)))) || IsInf32(defaultNaN32) {
		t.Error("IsInf32 broken")
	}
}

func TestIsqrt64(t *testing.T) {
	cases := []uint64{0, 1, 2, 3, 4, 15, 16, 17, 1 << 40, 1<<62 - 1, math.MaxUint64}
	for _, a := range cases {
		r := isqrt64(a)
		if r*r > a {
			t.Errorf("isqrt64(%d) = %d too large", a, r)
		}
		if r < 0xFFFFFFFF && (r+1)*(r+1) <= a {
			t.Errorf("isqrt64(%d) = %d too small", a, r)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100000; i++ {
		a := rng.Uint64()
		r := isqrt64(a)
		if r > 0 && r*r > a {
			t.Fatalf("isqrt64(%d) = %d too large", a, r)
		}
		if r < 0xFFFFFFFF && (r+1)*(r+1) <= a {
			t.Fatalf("isqrt64(%d) = %d too small", a, r)
		}
	}
}

func TestShiftRightJamming(t *testing.T) {
	if got := shift32RightJamming(0x80000001, 1); got != 0x40000001 {
		t.Errorf("jam32 = %08x", got)
	}
	if got := shift32RightJamming(0x80000000, 1); got != 0x40000000 {
		t.Errorf("jam32 clean = %08x", got)
	}
	if got := shift32RightJamming(1, 40); got != 1 {
		t.Errorf("jam32 overshift = %d", got)
	}
	if got := shift32RightJamming(0, 40); got != 0 {
		t.Errorf("jam32 zero = %d", got)
	}
	if got := shift64RightJamming(0x8000000000000001, 1); got != 0x4000000000000001 {
		t.Errorf("jam64 = %016x", got)
	}
	if got := shift64RightJamming(3, 70); got != 1 {
		t.Errorf("jam64 overshift = %d", got)
	}
}

// Property via testing/quick: softfloat Add32 equals hardware for
// arbitrary finite inputs.
func TestAdd32Quick(t *testing.T) {
	var ctx Context
	f := func(a, b uint32) bool {
		fa, fb := F32(a), F32(b)
		got := ctx.Add32(fa, fb)
		want := f32bits(f32val(fa) + f32val(fb))
		return got == want || bothNaN32(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
