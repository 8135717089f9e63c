package sabre

import (
	"math"
	"math/rand"
	"testing"
)

func TestFxKalmanMatchesHostBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	z := make([]float64, n)
	truth := 3.25
	for i := range z {
		z[i] = truth + rng.NormFloat64()*0.5
	}
	q, r, p0, x0 := 1e-4, 0.25, 100.0, 0.0

	res, err := RunFxKalman(q, r, p0, x0, z)
	if err != nil {
		t.Fatal(err)
	}
	hostEst, hostP := FxKalmanHost(q, r, p0, x0, z)
	for i := range z {
		if res.RawEstimates[i] != hostEst[i] {
			t.Fatalf("step %d: core %#x vs host %#x", i, res.RawEstimates[i], hostEst[i])
		}
	}
	if int32(math.Round(res.FinalP*65536)) != hostP {
		t.Fatalf("final P: core %v vs host %v", res.FinalP, float64(hostP)/65536)
	}
	// Still a working filter: converges near the truth (Q16.16
	// quantisation allows ~1e-3 of slack plus noise floor).
	if math.Abs(res.Estimates[n-1]-truth) > 0.2 {
		t.Fatalf("estimate %v, truth %v", res.Estimates[n-1], truth)
	}
	t.Logf("fixed-point Kalman: %.0f cycles/update", res.CyclesPerUpdate)
}

func TestFxKalmanMuchFasterThanSoftFloat(t *testing.T) {
	z32 := make([]float32, 100)
	z64 := make([]float64, 100)
	for i := range z32 {
		v := 1.5 + float64(i%7)*0.01
		z32[i] = float32(v)
		z64[i] = v
	}
	sf, err := RunKalman(1e-6, 0.25, 100, 0, z32)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := RunFxKalman(1e-4, 0.25, 100, 0, z64)
	if err != nil {
		t.Fatal(err)
	}
	speedup := sf.CyclesPerUpdate / fx.CyclesPerUpdate
	t.Logf("softfloat %.0f vs fixed-point %.0f cycles/update: %.1fx speedup",
		sf.CyclesPerUpdate, fx.CyclesPerUpdate, speedup)
	if speedup < 3 {
		t.Fatalf("fixed-point speedup only %.2fx", speedup)
	}
}

func TestFxKalmanAccuracyVsFloat(t *testing.T) {
	// The fixed-point filter must track the float32 filter closely on
	// the same data — quantisation costs less than the noise floor.
	rng := rand.New(rand.NewSource(2))
	n := 200
	z32 := make([]float32, n)
	z64 := make([]float64, n)
	for i := range z32 {
		v := 2.0 + rng.NormFloat64()*0.3
		z32[i] = float32(v)
		z64[i] = v
	}
	sf, err := RunKalman(1e-4, 0.09, 50, 0, z32)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := RunFxKalman(1e-4, 0.09, 50, 0, z64)
	if err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		if d := math.Abs(float64(sf.Estimates[i]) - fx.Estimates[i]); d > 0.01 {
			t.Fatalf("step %d: float %v vs fixed %v", i, sf.Estimates[i], fx.Estimates[i])
		}
	}
}

func TestFxKalmanValidation(t *testing.T) {
	if _, err := RunFxKalman(0, 1, 1, 0, make([]float64, 1<<20)); err == nil {
		t.Fatal("oversized set accepted")
	}
	res, err := RunFxKalman(0, 1, 1, 0, nil)
	if err != nil || len(res.Estimates) != 0 {
		t.Fatalf("empty run: %v", err)
	}
}

// BenchmarkFxKalmanUpdate times the Q16.16 program's 100 updates as
// RunFxKalman runs them, on a CPU loaded once outside the timer: each
// op stores the inputs, resets and runs the program.
func BenchmarkFxKalmanUpdate(b *testing.B) {
	prog, err := Assemble(fxKalmanMain)
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float64, 100)
	for i := range z {
		z[i] = 1.5
	}
	benchmarkProgram(b, EngineFast, prog.Words, func(c *CPU) {
		storeFxKalmanInputs(c, 1e-4, 0.25, 100, 0, z)
	}, fxKalmanBudget(len(z)))
}
