package sabre

import (
	"fmt"
	"testing"
)

// Tests specific to the compiled (basic-block translation) engine that
// go beyond the three-way parity suite: translation coverage shape,
// kernel matching and traffic, table invalidation on program reuse,
// and block splitting at branch targets. Parity itself lives in
// engine_parity_test.go.

var blockKindNames = [numBlockKinds]string{
	blockGeneric: "generic",
	blockKernel:  "kernel",
	blockRuntime: "runtime",
}

// runCompiledKalman executes one full Kalman program run (40 updates)
// on a compiled-engine CPU with stats attached and returns the
// collector.
func runCompiledKalman(t testing.TB) *CompiledStats {
	t.Helper()
	prog, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.Engine = EngineCompiled
	if err := c.LoadProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	z := make([]float32, 40)
	for i := range z {
		z[i] = 3 + float32(i%7)*0.1
	}
	SetKalmanInputs(c, 1e-6, 0.25, 100, 0, z)
	var st CompiledStats
	c.CollectCompiledStats(&st)
	if _, err := c.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("Kalman program did not halt")
	}
	if got, want := st.Retired(), c.Instret; got != want {
		t.Fatalf("stats retired %d, CPU instret %d", got, want)
	}
	return &st
}

// TestCompiledCoverageReport is the compiled engine's analogue of
// TestFusionCoverageReport: it runs the Kalman program with translation
// statistics attached and reports how the retired instructions split
// between the generated kernel, runtime blocks and generic
// (reference-stepped) blocks. The Kalman program has a whole-program
// kernel, so the shape is pinned hard: every retired instruction
// executes inside it, and the entire run is a single dispatch.
func TestCompiledCoverageReport(t *testing.T) {
	st := runCompiledKalman(t)
	total := st.Retired()
	var dispatches uint64
	for k := 0; k < numBlockKinds; k++ {
		dispatches += st.Dispatches[k]
		fmt.Printf("%8s: %6d dispatches, %9d instructions (%.1f%%)\n",
			blockKindNames[k], st.Dispatches[k], st.Instret[k],
			100*float64(st.Instret[k])/float64(total))
	}
	fmt.Printf("%8s: %6d dispatches, %9d instructions (%.0f instr/dispatch)\n",
		"total", dispatches, total, float64(total)/float64(dispatches))
	if st.Instret[blockKernel] != total {
		t.Errorf("the kernel retired %d of %d instructions; the Kalman program must be fully covered",
			st.Instret[blockKernel], total)
	}
	if st.Dispatches[blockKernel] != 1 {
		t.Errorf("Kalman run took %d kernel dispatches, want 1 (whole-program kernel)",
			st.Dispatches[blockKernel])
	}
	if st.Dispatches[blockGeneric] != 0 || st.Instret[blockGeneric] != 0 {
		t.Errorf("generic blocks ran (%d dispatches, %d instructions); Kalman must bind its kernel",
			st.Dispatches[blockGeneric], st.Instret[blockGeneric])
	}
}

// invalidationProgA/B share their first two words, then diverge: if any
// decoded record or compiled block survived a LoadProgram, the reused
// CPU would execute A's translation over B's program text.
const invalidationProgA = `
	addi t0, zero, 0
	addi t1, zero, 24
loop:
	addi t0, t0, 3
	bne t0, t1, loop
	addi a0, t0, 100
	halt
`

const invalidationProgB = `
	addi t0, zero, 0
	addi t1, zero, 24
loop:
	addi t0, t0, 4
	bne t0, t1, loop
	addi a0, t0, 200
	halt
`

// TestLoadProgramInvalidatesTranslations is the regression test for the
// reuse contract in LoadProgram: the decoded record array, the
// compiled-block table and the program-memory matches (SoftFloat blobs,
// generated kernel) describe the outgoing program and must be
// invalidated together, atomically, by the same LoadProgram call. The
// test runs a first program to HALT on one compiled-engine CPU (so
// every cache is hot), loads program B over it, and requires the
// outcome to match a fresh CPU on every engine. A first program of A
// shares B's first two words; a first program of Kalman binds its
// kernel, which a surviving kernel match would bind again at B's entry.
func TestLoadProgramInvalidatesTranslations(t *testing.T) {
	kal, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	progB := MustAssemble(invalidationProgB)
	for _, tc := range []struct {
		name    string
		first   []uint32
		setup   func(*CPU)
		a0      uint32 // the first program's a0 at HALT
		kernels uint64 // kernel dispatches the first program takes
	}{
		{"A_then_B", MustAssemble(invalidationProgA).Words, nil, 24 + 100, 0},
		{"Kalman_then_B", kal.Words, func(c *CPU) {
			SetKalmanInputs(c, 1e-4, 0.04, 1, 0, []float32{3, 3.5, 2.75})
		}, 0x3c5a2505, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			c.Engine = EngineCompiled
			if err := c.LoadProgram(tc.first); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(c)
			}
			var first CompiledStats
			c.CollectCompiledStats(&first)
			if _, err := c.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if !c.Halted || c.R[1] != tc.a0 || first.Dispatches[blockKernel] != tc.kernels {
				t.Fatalf("first program: halted=%v a0=%#x, %d kernel dispatches; want a0=%#x, %d",
					c.Halted, c.R[1], first.Dispatches[blockKernel], tc.a0, tc.kernels)
			}

			// Reload over the hot caches. All must go stale in the same
			// motion: a surviving compiled block would replay the first
			// program's code, a surviving decoded record would misread
			// B's words, and a surviving kernel match would bind the
			// first program's kernel.
			if err := c.LoadProgram(progB.Words); err != nil {
				t.Fatal(err)
			}
			if c.blocksValid || c.decValid || c.progMatched {
				t.Fatalf("LoadProgram left caches valid: blocksValid=%v decValid=%v progMatched=%v",
					c.blocksValid, c.decValid, c.progMatched)
			}
			var st CompiledStats
			c.CollectCompiledStats(&st)
			ran, err := c.Run(1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Halted || c.R[1] != 24+200 {
				t.Fatalf("program B on reused CPU: halted=%v a0=%d, want a0=%d",
					c.Halted, c.R[1], 24+200)
			}
			if st.Dispatches[blockKernel] != 0 {
				t.Fatalf("program B bound a kernel on the reused CPU (%d dispatches)", st.Dispatches[blockKernel])
			}

			// Full-outcome cross-check against fresh CPUs on every engine.
			reused := &engineOutcome{
				ran: ran,
				pc:  c.PC, regs: c.R, cycles: c.Cycles, instret: c.Instret,
				halted: c.Halted, fault: c.FaultAddr,
				data: append([]byte(nil), c.Data...),
			}
			for _, eng := range append([]Engine{EngineRef}, nonRefEngines...) {
				fresh, err := runOneEngine(eng, progB.Words, 1_000_000, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh.trace = nil // reused CPU has no trace peripheral mapped
				if tc.setup != nil {
					// The first program's data stays in RAM across
					// LoadProgram; only the outcome past it is B's own.
					fresh.data, reused.data = nil, nil
				}
				if d := diffOutcomes(fresh, reused); d != "" {
					t.Fatalf("reused CPU diverges from fresh engine %v: %s", engineName(eng), d)
				}
			}
		})
	}
}

// branchSplitProg loops back into the middle of the straight-line run
// that opens the program: the block entered at pc 0 spans the two init
// instructions, the loop body and the terminating branch, and the
// backward branch targets word 2 — inside that block, and (on the fast
// engine) into the middle of a fusable addi+addi pair.
const branchSplitProg = `
	addi t0, zero, 0
	addi t1, zero, 10
loop:
	addi t0, t0, 1
	addi t2, t0, 5
	bne t0, t1, loop
	halt
`

// TestCompiledBranchSplitsBlock pins the block-split rule: a branch
// into the middle of a block (or of a fused superinstruction) must
// begin a fresh translation at the target, never resume the enclosing
// block mid-way. Structurally, the translation table must hold two
// distinct entries — one at pc 0 covering the fall-through prefix, one
// at the loop head — and behaviourally the program must stay in
// three-way parity at every cycle budget, including budgets expiring
// inside the split pair.
func TestCompiledBranchSplitsBlock(t *testing.T) {
	prog := MustAssemble(branchSplitProg)
	const loopPC = 2

	// Structural half: run on the compiled engine and inspect the table.
	c := New()
	c.Engine = EngineCompiled
	if err := c.LoadProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("branch-split program did not halt")
	}
	if c.blocks[0].fn == nil {
		t.Error("no translation at pc 0 (program entry)")
	}
	if c.blocks[loopPC].fn == nil {
		t.Errorf("no translation at pc %d: branch into the middle of the entry block must split it", loopPC)
	}

	// The scanner itself must give the split for free: scanning from the
	// loop head yields a block that starts there, not a suffix view of
	// the entry block's records.
	head := scanBlockWords(prog.Words, 0)
	mid := scanBlockWords(prog.Words, loopPC)
	if head.n != 4 || mid.n != 2 {
		t.Errorf("block bodies: entry %d records, loop head %d; want 4 and 2", head.n, mid.n)
	}
	if mid.termOp != uint8(OpBNE) {
		t.Errorf("loop-head block terminator op %d, want BNE", mid.termOp)
	}

	// Behavioural half: every budget, all three engines.
	full := requireParity(t, prog.Words, 1_000_000, nil)
	for budget := uint64(0); budget <= full.cycles+4; budget++ {
		ref, err := runOneEngine(EngineRef, prog.Words, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range nonRefEngines {
			got, err := runOneEngine(eng, prog.Words, budget, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffOutcomes(ref, got); d != "" {
				t.Fatalf("budget %d, engine %v: %s", budget, eng, d)
			}
		}
	}
}

// TestKernelMatchIsRawWord pins the kernel match to raw program words:
// Kalman with its last word altered (the compare library's final
// return, which the filter never calls) binds no kernel, and still
// matches EngineRef and the unaltered program's outcome.
func TestKernelMatchIsRawWord(t *testing.T) {
	kal, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	words := append([]uint32(nil), kal.Words...)
	words[len(words)-1] = MustAssemble("halt").Words[0]
	z := []float32{3, 3.5, 2.75, 3.25, 3.1}
	setup := func(c *CPU) { SetKalmanInputs(c, 1e-4, 0.04, 1, 0, z) }
	budget := KalmanRunBudget(len(z))

	altered := requireParity(t, words, budget, setup)
	if !altered.halted || altered.errStr != "" {
		t.Fatalf("altered Kalman did not halt cleanly: halted=%v err=%q", altered.halted, altered.errStr)
	}
	out, err := runOneEngine(EngineCompiled, words, budget, setup)
	if err != nil {
		t.Fatal(err)
	}
	if k := out.stats.Dispatches[blockKernel]; k != 0 {
		t.Errorf("altered Kalman took %d kernel dispatches, want 0", k)
	}
	orig, err := runOneEngine(EngineCompiled, kal.Words, budget, setup)
	if err != nil {
		t.Fatal(err)
	}
	if orig.stats.Dispatches[blockKernel] != 1 {
		t.Errorf("Kalman took %d kernel dispatches, want 1", orig.stats.Dispatches[blockKernel])
	}
	if d := diffOutcomes(orig, out); d != "" {
		t.Errorf("altered Kalman diverges from Kalman: %s", d)
	}
}

// batchRoutines are the SoftFloat routines BatchProgram has a harness
// for; f32_neg is the one without a native mirror.
var batchRoutines = []string{
	"f32_add", "f32_sub", "f32_mul", "f32_div", "f32_sqrt", "f32_neg",
	"f32_from_i32", "f32_to_i32", "f32_cmp_eq", "f32_cmp_lt", "f32_cmp_le",
}

// TestBatchHarnessTraffic pins the compiled engine's traffic on the
// SoftFloat batch harnesses: no generated kernel binds, and every
// operation whose routine has a native mirror makes exactly one
// intrinsic call (f32_neg makes none), with every engine under test in
// parity with EngineRef.
func TestBatchHarnessTraffic(t *testing.T) {
	pairs := make([][2]uint32, 32)
	x := uint32(0x2545F491)
	for i := range pairs {
		for j := range pairs[i] {
			x = x*1664525 + 1013904223
			pairs[i][j] = x
		}
	}
	setup := func(c *CPU) {
		c.StoreWord(batchCountAddr, uint32(len(pairs)))
		for i, p := range pairs {
			c.StoreWord(uint32(batchInAddr+8*i), p[0])
			c.StoreWord(uint32(batchInAddr+8*i+4), p[1])
		}
	}
	budget := uint64(len(pairs))*5000 + 10000
	for _, r := range batchRoutines {
		prog, err := BatchProgram(r)
		if err != nil {
			t.Fatal(err)
		}
		requireParity(t, prog.Words, budget, setup)
		out, err := runOneEngine(EngineCompiled, prog.Words, budget, setup)
		if err != nil {
			t.Fatal(err)
		}
		calls := uint64(len(pairs))
		if r == "f32_neg" {
			calls = 0
		}
		if !out.halted || out.stats.Dispatches[blockKernel] != 0 || out.stats.IntrinsicCalls != calls {
			t.Errorf("%s: halted=%v, %d kernel dispatches, %d intrinsic calls; want halted, 0 and %d",
				r, out.halted, out.stats.Dispatches[blockKernel], out.stats.IntrinsicCalls, calls)
		}
	}
}

// TestCompiledStatsSummary pins the CLI summary's split of dispatches
// by tier: a program no kernel knows reports 0 kernel dispatches,
// Kalman exactly one.
func TestCompiledStatsSummary(t *testing.T) {
	kal := runCompiledKalman(t)
	if got, want := kal.Summary(), fmt.Sprintf("%d intrinsic calls; dispatches: 1 kernel, 0 runtime, 0 generic",
		kal.IntrinsicCalls); got != want {
		t.Errorf("Kalman summary %q, want %q", got, want)
	}
	out, err := runOneEngine(EngineCompiled, MustAssemble(intTrackMain).Words,
		intTrackBudget(64), intTrackSetup(intTrackSamples(64)))
	if err != nil {
		t.Fatal(err)
	}
	st := &out.stats
	if got, want := st.Summary(), fmt.Sprintf("0 intrinsic calls; dispatches: 0 kernel, %d runtime, 0 generic",
		st.Dispatches[blockRuntime]); got != want || st.Dispatches[blockRuntime] == 0 {
		t.Errorf("unseen program summary %q, want %q with runtime dispatches", got, want)
	}
}

// BenchmarkCompile measures what binding a generated kernel costs a
// freshly loaded program: clearing the translation table, one raw-word
// compare of program memory against the kernels (matchKernel, which
// resetBlocks runs once per LoadProgram) and the leader lookup that
// binds the kernel at the program entry. This is the one-time price a
// resident program pays after LoadProgram, the compiled engine's
// counterpart of BenchmarkPredecode.
func BenchmarkCompile(b *testing.B) {
	units := []struct {
		name string
		mk   func() (*Program, error)
	}{
		{"Kalman", KalmanProgram},
		{"FxBoresight", FxBoresightProgram},
	}
	for _, u := range units {
		b.Run(u.name, func(b *testing.B) {
			prog, err := u.mk()
			if err != nil {
				b.Fatal(err)
			}
			c := New()
			c.Engine = EngineCompiled
			if err := c.LoadProgram(prog.Words); err != nil {
				b.Fatal(err)
			}
			bind := func() *compiledBlock {
				c.resetBlocks()
				c.kernel = matchKernel(c.Prog)
				return c.compileBlockAt(0)
			}
			if cb := bind(); cb.kind != blockKernel {
				b.Fatalf("entry block bound kind %d, want kernel", cb.kind)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bind()
			}
		})
	}
}
