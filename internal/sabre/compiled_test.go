package sabre

import (
	"fmt"
	"strings"
	"testing"
)

// Tests of the fast engine's two shortcuts beyond the parity suite:
// kernel binding and its traffic, intrinsic lowering, the dispatch
// statistics, cache invalidation on program reuse, and fused records at
// branch targets. Parity itself lives in engine_parity_test.go.

var dispKindNames = [numDispKinds]string{
	dispKernel: "kernel",
	dispInterp: "interpreted",
}

// runKalmanStats executes one full Kalman program run (40 updates) on
// the zero Engine with statistics attached and returns the collector.
func runKalmanStats(t testing.TB) *CompiledStats {
	t.Helper()
	prog, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	c := New()
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

// TestCompiledCoverageReport runs the Kalman program on the zero
// Engine with statistics attached and logs how the retired
// instructions split between the generated kernel and the
// interpreter. The Kalman program has a whole-program kernel, so the
// shape is pinned hard: every retired instruction executes inside it,
// and the entire run is a single dispatch.
func TestCompiledCoverageReport(t *testing.T) {
	st := runKalmanStats(t)
	total := st.Retired()
	for k := 0; k < numDispKinds; k++ {
		t.Logf("%11s: %6d dispatches, %9d instructions (%.1f%%)",
			dispKindNames[k], st.Dispatches[k], st.Instret[k],
			100*float64(st.Instret[k])/float64(total))
	}
	if st.Instret[dispKernel] != total {
		t.Errorf("the kernel retired %d of %d instructions; the Kalman program must be fully covered",
			st.Instret[dispKernel], total)
	}
	if st.Dispatches[dispKernel] != 1 || st.Dispatches[dispInterp] != 0 {
		t.Errorf("Kalman run took %d kernel and %d interpreted dispatches, want 1 and 0 (whole-program kernel)",
			st.Dispatches[dispKernel], st.Dispatches[dispInterp])
	}
}

// invalidationProgA/B share their first two words, then diverge: if any
// decoded record survived a LoadProgram, the reused CPU would execute
// A's records over B's program text.
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
// reuse contract in LoadProgram: the decoded record array, its lowered
// SoftFloat calls and the kernel match describe the outgoing program
// and must be invalidated together, atomically, by the same
// LoadProgram call. The test runs a first program to HALT on one CPU
// (so every cache is hot), loads program B over it, and requires the
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
			if !c.Halted || c.R[1] != tc.a0 || first.Dispatches[dispKernel] != tc.kernels {
				t.Fatalf("first program: halted=%v a0=%#x, %d kernel dispatches; want a0=%#x, %d",
					c.Halted, c.R[1], first.Dispatches[dispKernel], tc.a0, tc.kernels)
			}

			// Reload over the hot caches. All must go stale in the same
			// motion: a surviving decoded record would misread B's
			// words, and a surviving kernel match would bind the first
			// program's kernel.
			if err := c.LoadProgram(progB.Words); err != nil {
				t.Fatal(err)
			}
			if c.decValid {
				t.Fatal("LoadProgram left the decoded program valid")
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
			if st.Dispatches[dispKernel] != 0 {
				t.Fatalf("program B bound a kernel on the reused CPU (%d dispatches)", st.Dispatches[dispKernel])
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
// that opens the program: the backward branch targets word 2, into the
// middle of the fusable addi+addi pair at word 1.
const branchSplitProg = `
	addi t0, zero, 0
	addi t1, zero, 10
loop:
	addi t0, t0, 1
	addi t2, t0, 5
	bne t0, t1, loop
	halt
`

// TestCompiledBranchSplitsBlock pins the split rule at branch targets:
// a branch into the middle of a fused superinstruction must begin at a
// record describing execution from the target word, never resume the
// enclosing record mid-way. Structurally, the records at the program
// entry, at word 1 and at the loop head must each describe the pair
// that starts at their own word; behaviourally the program must stay
// in parity at every cycle budget, including budgets expiring inside
// the split pair.
func TestCompiledBranchSplitsBlock(t *testing.T) {
	prog := MustAssemble(branchSplitProg)
	const loopPC = 2

	// Structural half: the fused decode array the run executes.
	c := New()
	if err := c.LoadProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("branch-split program did not halt")
	}
	for pc := uint32(0); pc <= loopPC; pc++ {
		var first, second decoded
		predecodeWordInto(prog.Words[pc], pc, &first)
		predecodeWordInto(prog.Words[pc+1], pc+1, &second)
		d := &c.dec[pc]
		if d.op != xopADDIADDI || d.rd != first.rd || d.imm != first.imm || d.rd2 != second.rd || d.imm2 != second.imm {
			t.Errorf("record at pc %d: op %d rd %d imm %d / rd %d imm %d; want the addi pair starting there",
				pc, d.op, d.rd, d.imm, d.rd2, d.imm2)
		}
	}

	// Behavioural half: every budget, every engine under test.
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
				t.Fatalf("budget %d, engine %s: %s", budget, engineName(eng), d)
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
	out, err := runOneEngine(EngineFast, words, budget, setup)
	if err != nil {
		t.Fatal(err)
	}
	if k := out.stats.Dispatches[dispKernel]; k != 0 {
		t.Errorf("altered Kalman took %d kernel dispatches, want 0", k)
	}
	orig, err := runOneEngine(EngineFast, kal.Words, budget, setup)
	if err != nil {
		t.Fatal(err)
	}
	if orig.stats.Dispatches[dispKernel] != 1 {
		t.Errorf("Kalman took %d kernel dispatches, want 1", orig.stats.Dispatches[dispKernel])
	}
	if d := diffOutcomes(orig, out); d != "" {
		t.Errorf("altered Kalman diverges from Kalman: %s", d)
	}
}

// TestKernelExitResumesInterpreter drives the kernel's one exit back
// to the interpreter: program memory is the Kalman program followed by
// a straight-line tail no kernel covers, and the run enters at
// f32_add (a kernel leader) with ra pointing at the tail, so the
// routine's return leaves the kernel at a pc that is not a leader. At
// every budget, including those that expire just after the kernel
// returns, in the tail or inside the routine, every engine under test
// must match EngineRef.
func TestKernelExitResumesInterpreter(t *testing.T) {
	p, err := Assemble(kalmanMain + Library())
	if err != nil {
		t.Fatal(err)
	}
	tail := MustAssemble(strings.Repeat("addi a2, a2, 1\n", 12) + "halt\n")
	words := append(append([]uint32(nil), p.Words...), tail.Words...)
	setup := func(c *CPU) {
		c.PC = p.Symbols["f32_add"]
		c.R[1], c.R[2] = 0x3FC00000, 0x40200000
		c.R[14] = 0xFF00
		c.R[15] = uint32(len(p.Words)) * 4
	}
	full, err := runOneEngine(EngineFast, words, 100_000, setup)
	if err != nil {
		t.Fatal(err)
	}
	if !full.halted || full.stats.Dispatches[dispKernel] != 1 || full.stats.Dispatches[dispInterp] != 1 {
		t.Fatalf("halted=%v, dispatches %v; want a halt after one kernel call and one interpreted stretch",
			full.halted, full.stats.Dispatches)
	}
	for budget := uint64(0); budget <= full.cycles+4; budget++ {
		requireParity(t, words, budget, setup)
	}
}

// batchRoutines are the SoftFloat routines BatchProgram has a harness
// for; f32_neg is the one without a native mirror.
var batchRoutines = []string{
	"f32_add", "f32_sub", "f32_mul", "f32_div", "f32_sqrt", "f32_neg",
	"f32_from_i32", "f32_to_i32", "f32_cmp_eq", "f32_cmp_lt", "f32_cmp_le",
}

// TestBatchHarnessTraffic pins the fast engine's traffic on the
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
		out, err := runOneEngine(EngineFast, prog.Words, budget, setup)
		if err != nil {
			t.Fatal(err)
		}
		calls := uint64(len(pairs))
		if r == "f32_neg" {
			calls = 0
		}
		if !out.halted || out.stats.Dispatches[dispKernel] != 0 || out.stats.IntrinsicCalls != calls {
			t.Errorf("%s: halted=%v, %d kernel dispatches, %d intrinsic calls; want halted, 0 and %d",
				r, out.halted, out.stats.Dispatches[dispKernel], out.stats.IntrinsicCalls, calls)
		}
	}
}

// callAfterALU calls four mirrored routines, each right after one of
// the four ops that fuse with a following JAL (lw, add, sub, addi);
// each call site carries a label so the test can find its record.
const callAfterALU = `
	li sp, 0xFF00
	lw a1, 4(zero)
	lw a0, 0(zero)
c_lw:	call f32_add
	add a1, a0, zero
c_add:	call f32_mul
	sub a1, a0, zero
c_sub:	call f32_sub
	addi a1, a0, 0
c_addi:	call f32_cmp_lt
	sw a0, 8(zero)
	halt
`

// TestIntrinsicCallNotFused pins that call lowering runs before fusion:
// a call right after an op that would fuse with its JAL still becomes
// an intrinsic record, the op before it stays unfused with it, every
// call runs its mirror, and every engine under test stays in parity.
func TestIntrinsicCallNotFused(t *testing.T) {
	prog, err := Assemble(callAfterALU + Library())
	if err != nil {
		t.Fatal(err)
	}
	setup := func(c *CPU) {
		c.StoreWord(0, 0x40490FDB)
		c.StoreWord(4, 0x3F800000)
	}
	requireParity(t, prog.Words, 100_000, setup)
	out, err := runOneEngine(EngineFast, prog.Words, 100_000, setup)
	if err != nil {
		t.Fatal(err)
	}
	if !out.halted || out.stats.IntrinsicCalls != 4 {
		t.Errorf("halted=%v, %d intrinsic calls; want halted and 4", out.halted, out.stats.IntrinsicCalls)
	}
	c := New()
	if err := c.LoadProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	c.predecode()
	for _, l := range []string{"c_lw", "c_add", "c_sub", "c_addi"} {
		pc := prog.Symbols[l]
		if op, prev := c.dec[pc].op, c.dec[pc-1].op; op != xopIntrin || prev >= uint8(numOpcodes) {
			t.Errorf("%s: record op %d after op %d; want an intrinsic record after a plain one", l, op, prev)
		}
	}
}

// TestCompiledStatsSummary pins the CLI summary's split of dispatches:
// Kalman is one kernel dispatch, a program no kernel knows one
// interpreted stretch.
func TestCompiledStatsSummary(t *testing.T) {
	kal := runKalmanStats(t)
	if got, want := kal.Summary(), fmt.Sprintf("%d intrinsic calls; dispatches: 1 kernel, 0 interpreted",
		kal.IntrinsicCalls); got != want {
		t.Errorf("Kalman summary %q, want %q", got, want)
	}
	out, err := runOneEngine(EngineFast, MustAssemble(intTrackMain).Words,
		intTrackBudget(64), intTrackSetup(intTrackSamples(64)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.stats.Summary(), "0 intrinsic calls; dispatches: 0 kernel, 1 interpreted"; got != want {
		t.Errorf("unseen program summary %q, want %q", got, want)
	}
}

// TestCompiledStatsRetired pins the statistics' accounting on runs
// that reach the interpreter: programs with no kernel (the integer
// loop, the alpha filter's mirrored calls, the control program to its
// budget) and a Kalman run whose budget expires inside the kernel, so
// the reference endgame finishes it. Every instruction is counted once
// (Retired equals the run's instret), every run counts at least one
// dispatch, and the mirrors' instructions are a subset of the total.
func TestCompiledStatsRetired(t *testing.T) {
	kal, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := Assemble(alphaFilterMain + Library())
	if err != nil {
		t.Fatal(err)
	}
	z := []float32{3, 3.5, 2.75, 3.25}
	for _, tc := range []struct {
		name    string
		run     func() (*engineOutcome, error)
		kernels uint64
	}{
		{"IntTrack", func() (*engineOutcome, error) {
			return runOneEngine(EngineFast, MustAssemble(intTrackMain).Words,
				intTrackBudget(64), intTrackSetup(intTrackSamples(64)))
		}, 0},
		{"AlphaFilter", func() (*engineOutcome, error) {
			return runOneEngine(EngineFast, alpha.Words, 2_000_000, alphaFilterSetup(z))
		}, 0},
		{"Control", func() (*engineOutcome, error) { return runControlEngine(EngineFast, 30_000) }, 0},
		{"KalmanBudget", func() (*engineOutcome, error) {
			return runOneEngine(EngineFast, kal.Words, 2000, func(c *CPU) {
				SetKalmanInputs(c, 1e-4, 0.04, 1, 0, z)
			})
		}, 1},
	} {
		out, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := &out.stats
		if st.Retired() != out.instret || st.KernelDispatches()+st.GenericDispatches() == 0 ||
			st.Dispatches[dispKernel] != tc.kernels || st.IntrinsicInstret > st.Retired() {
			t.Errorf("%s: retired %d of instret %d, dispatches %v, %d mirrored instructions; want all counted, %d kernel",
				tc.name, st.Retired(), out.instret, st.Dispatches, st.IntrinsicInstret, tc.kernels)
		}
	}
}
