package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func vecClose(a, b Vec3, tol float64) bool {
	return math.Abs(a[0]-b[0]) <= tol && math.Abs(a[1]-b[1]) <= tol && math.Abs(a[2]-b[2]) <= tol
}

func dcmClose(a, b DCM, tol float64) bool {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

func randEuler(rng *rand.Rand) Euler {
	// Keep pitch away from the +-90° singularity for round-trip tests.
	return Euler{
		Roll:  (rng.Float64() - 0.5) * 2 * math.Pi,
		Pitch: (rng.Float64() - 0.5) * (math.Pi - 0.2),
		Yaw:   (rng.Float64() - 0.5) * 2 * math.Pi,
	}
}

func TestDegRadConversions(t *testing.T) {
	if got := Deg2Rad(180); math.Abs(got-math.Pi) > tol {
		t.Fatalf("Deg2Rad(180) = %v", got)
	}
	if got := Rad2Deg(math.Pi / 2); math.Abs(got-90) > tol {
		t.Fatalf("Rad2Deg(pi/2) = %v", got)
	}
	e := EulerDeg(10, 20, 30)
	r, p, y := e.Deg()
	if math.Abs(r-10) > 1e-10 || math.Abs(p-20) > 1e-10 || math.Abs(y-30) > 1e-10 {
		t.Fatalf("EulerDeg round trip = %v %v %v", r, p, y)
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}); got != (Vec3{0, 0, 1}) {
		t.Fatalf("Cross = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
	if got := (Vec3{0, 0, 2}).Normalize(); got != (Vec3{0, 0, 1}) {
		t.Fatalf("Normalize = %v", got)
	}
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Fatalf("Normalize(0) = %v", got)
	}
}

func TestIdentityDCM(t *testing.T) {
	c := IdentityDCM()
	v := Vec3{1, 2, 3}
	if c.Apply(v) != v {
		t.Fatal("identity rotation changed a vector")
	}
	if !c.IsRotation(tol) {
		t.Fatal("identity is not a rotation?")
	}
}

// TestEulerBits pins why caches key rotations on Bits: a zero angle's
// sign is invisible to == but reaches the sign of a zero in the DCM.
func TestEulerBits(t *testing.T) {
	pos, neg := Euler{Yaw: math.Pi}, Euler{Roll: math.Copysign(0, -1), Yaw: math.Pi}
	if pos != neg || pos.Bits() == neg.Bits() {
		t.Fatalf("want == equal and Bits different: %v, %v", pos.Bits(), neg.Bits())
	}
	if neg.Bits() != [3]uint64{1 << 63, 0, math.Float64bits(math.Pi)} {
		t.Fatalf("Bits = %v", neg.Bits())
	}
	if a, b := pos.DCM()[2][1], neg.DCM()[2][1]; math.Signbit(a) == math.Signbit(b) {
		t.Fatalf("DCM[2][1] = %v and %v, want zeros of opposite sign", a, b)
	}
}

// TestSincosMatchesSinCos pins what the rotation builders rely on when
// they take an angle's sine and cosine from one math.Sincos call: its
// results have the bits of math.Sin and math.Cos, so the rotations,
// and every golden built on them, match the two separate calls.
func TestSincosMatchesSinCos(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := []float64{0, math.Copysign(0, -1), math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi,
		5e-324, 1e-300, 1 << 29, 1 << 30, 1e10, 1e300, math.MaxFloat64, math.Inf(1)}
	for i := 0; i < 200000; i++ {
		switch i % 3 {
		case 0:
			xs = append(xs, (r.Float64()*2-1)*4*math.Pi)
		case 1:
			xs = append(xs, (r.Float64()*2-1)*0.2)
		case 2:
			xs = append(xs, math.Float64frombits(r.Uint64()))
		}
	}
	for _, x := range xs {
		for _, x := range []float64{x, -x} {
			s, c := math.Sincos(x)
			ws, wc := math.Sin(x), math.Cos(x)
			if math.IsNaN(ws) && math.IsNaN(s) && math.IsNaN(wc) && math.IsNaN(c) {
				continue
			}
			if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
				t.Fatalf("Sincos(%v) = %v, %v; Sin, Cos = %v, %v", x, s, c, ws, wc)
			}
		}
	}
}

func TestSingleAxisRotations(t *testing.T) {
	// Yaw 90°: x-axis maps to y-axis.
	cYaw := Euler{Yaw: math.Pi / 2}.DCM()
	if got := cYaw.Apply(Vec3{1, 0, 0}); !vecClose(got, Vec3{0, 1, 0}, 1e-12) {
		t.Fatalf("yaw90 * x = %v", got)
	}
	// Pitch 90°: x-axis maps to -z (aerospace convention, nose up).
	cPit := Euler{Pitch: math.Pi / 2}.DCM()
	if got := cPit.Apply(Vec3{1, 0, 0}); !vecClose(got, Vec3{0, 0, -1}, 1e-12) {
		t.Fatalf("pitch90 * x = %v", got)
	}
	// Roll 90°: y-axis maps to z.
	cRol := Euler{Roll: math.Pi / 2}.DCM()
	if got := cRol.Apply(Vec3{0, 1, 0}); !vecClose(got, Vec3{0, 0, 1}, 1e-12) {
		t.Fatalf("roll90 * y = %v", got)
	}
}

func TestEulerDCMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		e := randEuler(rng)
		back := e.DCM().Euler()
		if math.Abs(back.Roll-e.Roll) > 1e-9 ||
			math.Abs(back.Pitch-e.Pitch) > 1e-9 ||
			math.Abs(back.Yaw-e.Yaw) > 1e-9 {
			t.Fatalf("round trip %v -> %v", e, back)
		}
	}
}

func TestDCMIsRotationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		c := randEuler(rng).DCM()
		if !c.IsRotation(1e-10) {
			t.Fatalf("Euler DCM not a rotation: %v", c)
		}
	}
}

func TestGimbalLockExtraction(t *testing.T) {
	e := Euler{Roll: 0.3, Pitch: math.Pi / 2, Yaw: 0.7}
	c := e.DCM()
	back := c.Euler()
	// At the singularity only yaw-roll is observable; the reconstructed
	// DCM must still match.
	if !dcmClose(back.DCM(), c, 1e-9) {
		t.Fatalf("gimbal-lock DCM mismatch:\n%v\n%v", back.DCM(), c)
	}
	if back.Roll != 0 {
		t.Fatalf("convention: roll should be 0 at singularity, got %v", back.Roll)
	}
}

func TestDCMMulApplyConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a := randEuler(rng).DCM()
		b := randEuler(rng).DCM()
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if !vecClose(a.Mul(b).Apply(v), a.Apply(b.Apply(v)), 1e-10) {
			t.Fatal("(AB)v != A(Bv)")
		}
	}
}

func TestDCMTransposeIsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		c := randEuler(rng).DCM()
		if !dcmClose(c.Mul(c.T()), IdentityDCM(), 1e-10) {
			t.Fatal("C*Cᵀ != I")
		}
	}
}

func TestDetOfRotationIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		c := randEuler(rng).DCM()
		if math.Abs(c.Det()-1) > 1e-10 {
			t.Fatalf("det = %v", c.Det())
		}
	}
}

func TestAxisAngleAgainstEuler(t *testing.T) {
	// Rotation about z by θ must equal Euler yaw θ.
	theta := 0.7
	a := QuatFromAxisAngle(Vec3{0, 0, 2}, theta).DCM()
	b := Euler{Yaw: theta}.DCM()
	if !dcmClose(a, b, 1e-12) {
		t.Fatalf("axis-angle z mismatch:\n%v\n%v", a, b)
	}
}

func TestAxisAnglePreservesAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		axis := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
		q := QuatFromAxisAngle(axis.Scale(1+rng.Float64()), rng.Float64()*math.Pi)
		if !vecClose(q.Apply(axis), axis, 1e-10) {
			t.Fatal("rotation moved its own axis")
		}
	}
}

func TestQuatIdentity(t *testing.T) {
	q := IdentityQuat()
	v := Vec3{1, 2, 3}
	if !vecClose(q.Apply(v), v, tol) {
		t.Fatal("identity quat rotates")
	}
}

func TestQuatDCMEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		e := randEuler(rng)
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		qv := e.Quat().Apply(v)
		cv := e.DCM().Apply(v)
		if !vecClose(qv, cv, 1e-10) {
			t.Fatalf("quat vs DCM rotation mismatch at %v: %v vs %v", e, qv, cv)
		}
	}
}

func TestQuatMulMatchesDCMMul(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		e1, e2 := randEuler(rng), randEuler(rng)
		qc := e1.Quat().Mul(e2.Quat()).DCM()
		cc := e1.DCM().Mul(e2.DCM())
		if !dcmClose(qc, cc, 1e-10) {
			t.Fatal("quaternion product != DCM product")
		}
	}
}

func TestQuatConjIsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		q := randEuler(rng).Quat()
		id := q.Mul(q.Conj())
		if math.Abs(id.W-1) > 1e-12 || math.Abs(id.X) > 1e-12 ||
			math.Abs(id.Y) > 1e-12 || math.Abs(id.Z) > 1e-12 {
			t.Fatalf("q*q⁻¹ = %+v", id)
		}
	}
}

// Property via testing/quick: rotations preserve vector norms.
func TestRotationPreservesNormQuick(t *testing.T) {
	f := func(roll, pitch, yaw, x, y, z float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Mod(v, 10)
		}
		e := Euler{clamp(roll), clamp(pitch), clamp(yaw)}
		v := Vec3{clamp(x), clamp(y), clamp(z)}
		rotated := e.DCM().Apply(v)
		return math.Abs(rotated.Norm()-v.Norm()) < 1e-9*(v.Norm()+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property via testing/quick: quaternion Apply matches DCM Apply.
func TestQuatApplyQuick(t *testing.T) {
	f := func(roll, pitch, yaw float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Mod(v, math.Pi)
		}
		e := Euler{clamp(roll), clamp(pitch) / 2, clamp(yaw)}
		v := Vec3{1, -2, 0.5}
		return vecClose(e.Quat().Apply(v), e.DCM().Apply(v), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEulerToDCM(b *testing.B) {
	e := EulerDeg(1, 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.DCM()
	}
}
