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
// plus the compare library. Its blocks must reach compiled-tier
// dispatch through the runtime region generator alone.
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

// TestRuntimeRegionGenerator is the acceptance test of the runtime
// region generator: a runtime-assembled program with no generated
// kernels must run with full three-way engine parity and reach kernel
// dispatch coverage of at least 90% on the compiled engine, with the
// runtime tier dispatching and the intrinsic mirrors firing.
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
	c.Engine = EngineCompiled
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
		t.Fatal("compiled run did not halt")
	}

	var total uint64
	for _, d := range st.Dispatches {
		total += d
	}
	kernel := total - st.Dispatches[blockGeneric]
	if total == 0 || float64(kernel) < 0.9*float64(total) {
		t.Fatalf("kernel dispatch coverage %d/%d below 90%%", kernel, total)
	}
	if st.Dispatches[blockRuntime] == 0 {
		t.Fatal("runtime region generator never dispatched")
	}
	if st.IntrinsicCalls == 0 {
		t.Fatal("intrinsic mirrors never fired on a runtime-assembled program")
	}
	// Each iteration makes six library calls; all should lower.
	want := uint64(len(z) * 6)
	if st.IntrinsicCalls != want {
		t.Errorf("intrinsic calls = %d, want %d", st.IntrinsicCalls, want)
	}
	t.Logf("dispatch coverage %d/%d (runtime %d, kernel %d, generic %d), %d intrinsic calls",
		kernel, total, st.Dispatches[blockRuntime], st.Dispatches[blockKernel],
		st.Dispatches[blockGeneric], st.IntrinsicCalls)
}

// benchmarkProgram runs one program repeatedly on a reusable CPU for an
// engine under test: each iteration rewrites the inputs, resets the
// core and runs it to HALT, as the root Sabre benchmarks do. The
// warm-up run pays translation (or predecode); the measured steady
// state must be allocation-free. engineRuntime empties the kernel list
// for the whole benchmark, so the bundled programs run on the runtime
// tier as any unseen program does.
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

// BenchmarkSabreRuntimeKalman runs the root BenchmarkSabreSoftFloatKalman
// workload (100 updates) on the compiled engine's runtime tier alone;
// the intrinsic mirrors carry most of it.
func BenchmarkSabreRuntimeKalman(b *testing.B) {
	prog, err := KalmanProgram()
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float32, 100)
	for i := range z {
		z[i] = 3.25 + float32((i*2654435761)%1000-500)/2000
	}
	benchmarkProgram(b, engineRuntime, prog.Words, func(c *CPU) {
		SetKalmanInputs(c, 1e-6, 0.25, 100, 0, z)
	}, KalmanRunBudget(len(z)))
}

// BenchmarkSabreRuntimeFxBoresight runs the root
// BenchmarkSabreFxBoresight workload (20 epochs) on the runtime tier
// alone: integer code with no intrinsic to lean on.
func BenchmarkSabreRuntimeFxBoresight(b *testing.B) {
	prog, err := FxBoresightProgram()
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]FxBoresightInput, 20)
	for i := range inputs {
		inputs[i] = FxBoresightInput{F: geom.Vec3{0.3, -0.2, 9.7}, AX: 0.31, AY: -0.18}
	}
	benchmarkProgram(b, engineRuntime, prog.Words, func(c *CPU) {
		LoadFxBoresightInputs(c, fxcore.DefaultConfig(), 0.01, inputs)
	}, FxBoresightRunBudget(len(inputs)))
}

func benchmarkIntTrack(b *testing.B, e Engine) {
	samples := intTrackSamples(512)
	benchmarkProgram(b, e, MustAssemble(intTrackMain).Words,
		intTrackSetup(samples), intTrackBudget(len(samples)))
}

// BenchmarkSabreRuntimeIntLoop runs intTrackMain, an integer loop no
// generated kernel covers, on the compiled engine.
func BenchmarkSabreRuntimeIntLoop(b *testing.B) { benchmarkIntTrack(b, engineRuntime) }

// BenchmarkSabreIntLoopFast is BenchmarkSabreRuntimeIntLoop on
// EngineFast, the default engine the runtime tier is measured against.
func BenchmarkSabreIntLoopFast(b *testing.B) { benchmarkIntTrack(b, EngineFast) }
