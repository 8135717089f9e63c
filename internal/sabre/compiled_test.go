package sabre

import (
	"fmt"
	"testing"
)

// Tests specific to the compiled (basic-block translation) engine that
// go beyond the three-way parity suite: translation coverage shape,
// table invalidation on program reuse, and block splitting at branch
// targets. Parity itself lives in engine_parity_test.go.

var blockKindNames = [numBlockKinds]string{
	blockGeneric: "generic",
	blockRegion:  "region",
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
// between generated region kernels and generic (reference-stepped)
// blocks. The Kalman program is a bundled unit with a whole-program
// kernel, so the shape is pinned hard: every retired instruction
// executes inside region kernels, and the entire run is a single
// dispatch.
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
	if st.Instret[blockRegion] != total {
		t.Errorf("region kernels retired %d of %d instructions; the bundled Kalman unit must be fully covered",
			st.Instret[blockRegion], total)
	}
	if st.Dispatches[blockRegion] != 1 {
		t.Errorf("Kalman run took %d region dispatches, want 1 (whole-program kernel)",
			st.Dispatches[blockRegion])
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
// reuse contract in LoadProgram: the decoded record array and the
// compiled-block table describe the outgoing program and must be
// invalidated together, atomically, by the same LoadProgram call. The
// test runs program A to steady state on one compiled-engine CPU (so
// both caches are hot), loads program B over it, and requires the
// outcome to match a fresh CPU on every engine.
func TestLoadProgramInvalidatesTranslations(t *testing.T) {
	progA := MustAssemble(invalidationProgA)
	progB := MustAssemble(invalidationProgB)

	c := New()
	c.Engine = EngineCompiled
	if err := c.LoadProgram(progA.Words); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted || c.R[1] != 24+100 {
		t.Fatalf("program A: halted=%v a0=%d", c.Halted, c.R[1])
	}

	// Reload over the hot caches. Both must go stale in the same motion:
	// a surviving compiled block would replay A's loop body (+3), a
	// surviving decoded record would misread B's words.
	if err := c.LoadProgram(progB.Words); err != nil {
		t.Fatal(err)
	}
	if c.blocksValid || c.decValid {
		t.Fatalf("LoadProgram left caches valid: blocksValid=%v decValid=%v",
			c.blocksValid, c.decValid)
	}
	ran, err := c.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Halted || c.R[1] != 24+200 {
		t.Fatalf("program B on reused CPU: halted=%v a0=%d, want a0=%d",
			c.Halted, c.R[1], 24+200)
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
		if d := diffOutcomes(fresh, reused); d != "" {
			t.Fatalf("reused CPU diverges from fresh engine %v: %s", eng, d)
		}
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

// BenchmarkCompile measures translation cost per program: the lazy
// compileBlockAt call at the program entry, which for the bundled units
// verifies the candidate kernel's full region signature word by word
// before binding it (the dominant cost; see compile.go). This is the
// one-time price a resident program pays after LoadProgram, the
// compiled engine's counterpart of BenchmarkPredecode.
func BenchmarkCompile(b *testing.B) {
	units := []struct {
		name string
		mk   func() (*Program, error)
	}{
		{"Kalman", KalmanProgram},
		{"FxBoresight", FxBoresightProgram},
		{"Control", ControlProgram},
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
			c.resetBlocks()
			cb := c.compileBlockAt(0)
			if cb.kind != blockRegion {
				b.Fatalf("entry block bound kind %d, want region kernel", cb.kind)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.resetBlocks()
				c.compileBlockAt(0)
			}
		})
	}
}
