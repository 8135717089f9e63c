package sabre

import (
	"math"
	"testing"

	"boresight/internal/fxcore"
	"boresight/internal/geom"
)

// alphaFilterMain is a runtime-assembled SoftFloat program that no
// generated kernel covers: a first-order alpha filter with a magnitude
// and threshold channel, exercising add/sub/mul/sqrt intrinsic calls
// plus the compare library. Its library calls must reach the native
// mirrors through predecode's call lowering alone.
const alphaFilterMain = `
	li sp, 0xFF00
	lw s0, 0(zero)          ; measurement count
	li s1, 0x100            ; input pointer
	li s2, 0x8000           ; output pointer
	lw fp, 4(zero)          ; alpha (f32 bits)
	lw t0, 8(zero)          ; initial state
	sw t0, 0x20(zero)
	beqz s0, af_done
af_loop:
	lw a0, 0(s1)            ; z
	lw a1, 0x20(zero)       ; y
	call f32_sub            ; innovation = z - y
	addi a1, fp, 0
	call f32_mul            ; scaled = alpha * innovation
	lw a1, 0x20(zero)
	call f32_add            ; y' = y + scaled
	sw a0, 0x20(zero)
	sw a0, 0(s2)
	addi a1, a0, 0
	call f32_mul            ; y'^2
	call f32_sqrt           ; |y'|
	sw a0, 4(s2)
	lw a1, 12(zero)         ; threshold
	call f32_cmp_lt
	sw a0, 8(s2)
	addi s1, s1, 4
	addi s2, s2, 12
	addi s0, s0, -1
	bnez s0, af_loop
af_done:
	halt
`

func alphaFilterSetup(z []float32) func(*CPU) {
	return func(c *CPU) {
		c.StoreWord(0, uint32(len(z)))
		c.StoreWord(4, math.Float32bits(0.125))
		c.StoreWord(8, math.Float32bits(2.5))
		c.StoreWord(12, math.Float32bits(4.0))
		for i, v := range z {
			c.StoreWord(uint32(0x100+4*i), math.Float32bits(v))
		}
	}
}

// TestRuntimeRegionGenerator is the acceptance test for a
// runtime-assembled SoftFloat program: with no generated kernel it must
// run in parity on every engine under test, and on the zero Engine it
// must run on the interpreter with every library call lowered to its
// native mirror.
func TestRuntimeRegionGenerator(t *testing.T) {
	prog, err := Assemble(alphaFilterMain + Library())
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float32, 24)
	for i := range z {
		z[i] = 3 + float32(math.Cos(float64(i)))*0.5
	}
	setup := alphaFilterSetup(z)

	out := requireParity(t, prog.Words, 2_000_000, setup)
	if !out.halted || out.errStr != "" {
		t.Fatalf("alpha filter did not halt cleanly: halted=%v err=%q", out.halted, out.errStr)
	}

	c := New()
	if err := c.LoadProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	setup(c)
	var st CompiledStats
	c.CollectCompiledStats(&st)
	if _, err := c.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("run did not halt")
	}
	if st.Dispatches[dispKernel] != 0 || st.Dispatches[dispInterp] != 1 || st.Retired() != c.Instret {
		t.Fatalf("dispatches %v retiring %d of %d instructions; want one interpreted stretch retiring all",
			st.Dispatches, st.Retired(), c.Instret)
	}
	// Each iteration makes six library calls; all should lower.
	if want := uint64(len(z) * 6); st.IntrinsicCalls != want {
		t.Errorf("intrinsic calls = %d, want %d", st.IntrinsicCalls, want)
	}
	t.Logf("%d intrinsic calls charged %d of %d instructions",
		st.IntrinsicCalls, st.IntrinsicInstret, st.Retired())
}

// benchmarkProgram runs one program repeatedly on a reusable CPU for an
// engine under test: each iteration rewrites the inputs, resets the
// core and runs it to HALT, as the root Sabre benchmarks do. The
// warm-up run pays predecode; the measured steady state must be
// allocation-free. The test-side modes hold for the whole benchmark.
func benchmarkProgram(b *testing.B, e Engine, words []uint32, setup func(*CPU), budget uint64) {
	eng, restore := withEngine(e)
	defer restore()
	c := New()
	c.Engine = eng
	if err := c.LoadProgram(words); err != nil {
		b.Fatal(err)
	}
	run := func() {
		setup(c)
		c.Reset()
		if _, err := c.Run(budget); err != nil {
			b.Fatal(err)
		}
		if !c.Halted {
			b.Fatal("program did not halt")
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Instret)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

func benchmarkKalman(b *testing.B, e Engine) {
	prog, err := KalmanProgram()
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float32, 100)
	for i := range z {
		z[i] = 3.25 + float32((i*2654435761)%1000-500)/2000
	}
	benchmarkProgram(b, e, prog.Words, func(c *CPU) {
		SetKalmanInputs(c, 1e-6, 0.25, 100, 0, z)
	}, KalmanRunBudget(len(z)))
}

// BenchmarkSabreKalmanNoKernels runs the root
// BenchmarkSabreSoftFloatKalman workload (100 updates) with its
// generated kernel bypassed: the interpreter, with the intrinsic
// mirrors carrying most of it.
func BenchmarkSabreKalmanNoKernels(b *testing.B) { benchmarkKalman(b, engineNoKernels) }

// BenchmarkSabreKalmanInterp is the same workload with the mirrors
// bypassed too: every SoftFloat routine runs emulated.
func BenchmarkSabreKalmanInterp(b *testing.B) { benchmarkKalman(b, engineInterp) }

// BenchmarkSabreFxBoresightNoKernels runs the root
// BenchmarkSabreFxBoresight workload (20 epochs) with its generated
// kernel bypassed: integer code with no intrinsic to lean on.
func BenchmarkSabreFxBoresightNoKernels(b *testing.B) {
	prog, err := FxBoresightProgram()
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]FxBoresightInput, 20)
	for i := range inputs {
		inputs[i] = FxBoresightInput{F: geom.Vec3{0.3, -0.2, 9.7}, AX: 0.31, AY: -0.18}
	}
	benchmarkProgram(b, engineNoKernels, prog.Words, func(c *CPU) {
		LoadFxBoresightInputs(c, fxcore.DefaultConfig(), 0.01, inputs)
	}, FxBoresightRunBudget(len(inputs)))
}

// BenchmarkSabreIntLoop runs intTrackMain, an integer loop no
// generated kernel covers, on the zero Engine.
func BenchmarkSabreIntLoop(b *testing.B) {
	samples := intTrackSamples(512)
	benchmarkProgram(b, EngineFast, MustAssemble(intTrackMain).Words,
		intTrackSetup(samples), intTrackBudget(len(samples)))
}
