package sabre

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"boresight/internal/fxcore"
	"boresight/internal/geom"
)

// The fast engine's contract is bit-identical architectural behaviour
// against the reference Step() loop: registers, data memory,
// peripheral side effects in order, cycle and retired-instruction
// counts, PC, and fault/halt outcomes. These tests run the same
// program on the reference engine and on every engine under test and
// compare everything observable.

// nonRefEngines are the engines under test held to parity with
// EngineRef: EngineFast as it runs, and the two test-side modes of it
// that take its shortcuts away one by one.
var nonRefEngines = []Engine{EngineFast, engineNoKernels, engineInterp}

// Test-side engines under test, not CPU settings: withEngine maps each
// to EngineFast with part of its machinery bypassed.
const (
	// engineNoKernels bypasses the generated kernels, so the two
	// programs that have one run on the interpreter and the mirrors as
	// any unseen program does.
	engineNoKernels = Engine(0xFE)
	// engineInterp also bypasses the SoftFloat mirrors, so every call
	// into the library runs the emulated routine on the interpreter,
	// superinstructions and all.
	engineInterp = Engine(0xFF)
)

// withEngine returns the CPU engine that runs an engine under test and
// the function that ends the run's setting. The test-side modes empty
// the package's list of generated kernels and, for engineInterp, the
// canonical SoftFloat blobs predecode looks for, until restore is
// called, so no program matches them; the sabre tests run serially, so
// no other CPU observes it.
func withEngine(e Engine) (eng Engine, restore func()) {
	switch e {
	case engineNoKernels:
		saved := kernels
		kernels = nil
		return EngineFast, func() { kernels = saved }
	case engineInterp:
		savedKernels, savedBlobs := kernels, sfOff
		kernels = nil
		sfOff.arith, sfOff.cmp = nil, nil
		return EngineFast, func() { kernels, sfOff = savedKernels, savedBlobs }
	}
	return e, func() {}
}

// engineName names an engine under test in failure messages.
func engineName(e Engine) string {
	switch e {
	case engineNoKernels:
		return "nokernels"
	case engineInterp:
		return "interp"
	}
	return e.String()
}

// periphEvent is one bus access observed by the trace peripheral.
type periphEvent struct {
	write bool
	off   uint32
	v     uint32
}

// tracePeriph records every access in order and answers reads from a
// deterministic LCG, so any divergence in access order, count, or
// stored values shows up in the trace or in downstream register state.
type tracePeriph struct {
	seed   uint32
	events []periphEvent
}

func (p *tracePeriph) BusRead(off uint32) uint32 {
	p.seed = p.seed*1664525 + 1013904223
	p.events = append(p.events, periphEvent{false, off, p.seed})
	return p.seed
}

func (p *tracePeriph) BusWrite(off uint32, v uint32) {
	p.events = append(p.events, periphEvent{true, off, v})
}

// engineOutcome is everything observable after a Run on one engine.
type engineOutcome struct {
	ran     uint64
	errStr  string
	pc      uint32
	regs    [16]uint32
	cycles  uint64
	instret uint64
	halted  bool
	fault   uint32
	data    []byte
	trace   []periphEvent
	// stats is the fast engine's dispatch statistics for the run (zero
	// on the reference engine).
	stats CompiledStats
}

// engineCPU loads words onto a fresh CPU with a trace peripheral at
// LEDSBase and a cycle counter at CounterBase, and applies setup.
func engineCPU(words []uint32, setup func(*CPU)) (*CPU, *tracePeriph, error) {
	c := New()
	tp := &tracePeriph{}
	c.Map(LEDSBase, tp)
	c.Map(CounterBase, &Counter{CPU: c})
	if err := c.LoadProgram(words); err != nil {
		return nil, nil, err
	}
	if setup != nil {
		setup(c)
	}
	return c, tp, nil
}

// runOneEngine runs words on an engineCPU and captures the outcome.
func runOneEngine(eng Engine, words []uint32, maxCycles uint64, setup func(*CPU)) (*engineOutcome, error) {
	eng, restore := withEngine(eng)
	defer restore()
	c, tp, err := engineCPU(words, setup)
	if err != nil {
		return nil, err
	}
	c.Engine = eng
	var st CompiledStats
	c.CollectCompiledStats(&st)
	ran, err := c.Run(maxCycles)
	out := &engineOutcome{
		stats:   st,
		ran:     ran,
		pc:      c.PC,
		regs:    c.R,
		cycles:  c.Cycles,
		instret: c.Instret,
		halted:  c.Halted,
		fault:   c.FaultAddr,
		data:    append([]byte(nil), c.Data...),
		trace:   tp.events,
	}
	if err != nil {
		out.errStr = err.Error()
	}
	return out, nil
}

// diffOutcomes returns a description of the first mismatch, or "".
// "fast" in the messages reads as "the engine under test" — the same
// comparison serves every mode of the fast engine.
func diffOutcomes(ref, fast *engineOutcome) string {
	switch {
	case ref.errStr != fast.errStr:
		return fmt.Sprintf("error: ref %q, fast %q", ref.errStr, fast.errStr)
	case ref.ran != fast.ran:
		return fmt.Sprintf("cycles ran: ref %d, fast %d", ref.ran, fast.ran)
	case ref.pc != fast.pc:
		return fmt.Sprintf("PC: ref %d, fast %d", ref.pc, fast.pc)
	case ref.regs != fast.regs:
		return fmt.Sprintf("registers: ref %v, fast %v", ref.regs, fast.regs)
	case ref.cycles != fast.cycles:
		return fmt.Sprintf("Cycles: ref %d, fast %d", ref.cycles, fast.cycles)
	case ref.instret != fast.instret:
		return fmt.Sprintf("Instret: ref %d, fast %d", ref.instret, fast.instret)
	case ref.halted != fast.halted:
		return fmt.Sprintf("Halted: ref %v, fast %v", ref.halted, fast.halted)
	case ref.errStr != "" && ref.fault != fast.fault:
		return fmt.Sprintf("FaultAddr: ref %#x, fast %#x", ref.fault, fast.fault)
	case !bytes.Equal(ref.data, fast.data):
		for i := range ref.data {
			if ref.data[i] != fast.data[i] {
				return fmt.Sprintf("data[%#x]: ref %#x, fast %#x", i, ref.data[i], fast.data[i])
			}
		}
	case len(ref.trace) != len(fast.trace):
		return fmt.Sprintf("peripheral trace length: ref %d, fast %d", len(ref.trace), len(fast.trace))
	}
	for i := range ref.trace {
		if ref.trace[i] != fast.trace[i] {
			return fmt.Sprintf("peripheral trace[%d]: ref %+v, fast %+v", i, ref.trace[i], fast.trace[i])
		}
	}
	return ""
}

// requireParity runs words on the reference engine and every engine
// under test and fails on any divergence from the reference.
func requireParity(t *testing.T, words []uint32, maxCycles uint64, setup func(*CPU)) *engineOutcome {
	t.Helper()
	ref, err := runOneEngine(EngineRef, words, maxCycles, setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range nonRefEngines {
		got, err := runOneEngine(eng, words, maxCycles, setup)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffOutcomes(ref, got); d != "" {
			t.Fatalf("engine %s divergence: %s", engineName(eng), d)
		}
	}
	return ref
}

// isaExercise touches every opcode: both branch outcomes for each of
// the six conditions, both call forms, all ALU/shift/compare ops, all
// five memory ops (RAM and peripheral windows), and the cycle counter.
const isaExercise = `
	li t0, 0x12345678       ; lui+ori big constant
	li t1, 0x40000          ; lui+add (zero low half)
	li t2, -7
	add a0, t0, t1
	sub a1, t0, t2
	and a2, t0, t1
	or a3, t0, t2
	xor s0, t0, t1
	li t3, 3
	sll s1, t0, t3
	srl s2, t0, t3
	sra fp, t2, t3
	mul sp, t0, t1
	mulhu ra, t0, t1
	slt t4, t2, t0
	sltu t4, t0, t2
	slti t4, t2, -3
	sltiu t4, t0, 99
	addi t4, t4, 41
	andi a0, a0, 0xFF
	ori a0, a0, 0x700
	xori a0, a0, 0x3C
	slli a1, a1, 5
	srli a2, t0, 9
	srai a3, t2, 2
	; memory: RAM word + byte traffic
	sw a0, 0x200(zero)
	lw s0, 0x200(zero)
	sb t0, 0x205(zero)
	lb s1, 0x205(zero)
	lbu s2, 0x205(zero)
	; peripheral window: trace device + cycle counter
	li t3, 0x10000
	sw a0, 0(t3)
	lw fp, 4(t3)
	li t3, 0x10700
	lw sp, 0(t3)            ; counter: exposes cycle-visibility skew
	sw sp, 0x208(zero)
	; every branch, taken and not taken
	beq t4, t4, b1
	halt
b1:	bne t4, zero, b2
	halt
b2:	blt t2, t0, b3
	halt
b3:	bge t0, t2, b4
	halt
b4:	bltu t4, t0, b5
	halt
b5:	bgeu t0, t4, b6
	halt
b6:	beq t4, zero, bad
	bne t4, t4, bad
	blt t0, t2, bad
	bge t2, t0, bad
	bltu t0, t4, bad
	bgeu t4, t0, bad
	; calls
	call leaf
	li a1, 0x3F800000
	jalr ra, a0, 0          ; register-indirect to leaf2 address in a0
	j fin
leaf:
	la a0, leaf2            ; word address of leaf2
	slli a0, a0, 2          ; to byte address for jalr
	ret
leaf2:
	addi s0, s0, 1
	ret
bad:
	li a0, 0xDEAD
	halt
fin:
	halt
`

func TestEngineParityISA(t *testing.T) {
	prog := MustAssemble(isaExercise)
	out := requireParity(t, prog.Words, 1_000_000, nil)
	if !out.halted || out.errStr != "" {
		t.Fatalf("ISA exercise did not halt cleanly: halted=%v err=%q", out.halted, out.errStr)
	}
	if out.regs[1] == 0xDEAD {
		t.Fatal("ISA exercise took a wrong branch")
	}
}

// TestEngineParityCycleLimit sweeps every budget through the ISA
// program, covering expiry at every instruction boundary — including
// budgets that land inside fused pairs, where the fast engine must
// fall back to single-stepping.
func TestEngineParityCycleLimit(t *testing.T) {
	prog := MustAssemble(isaExercise)
	full := requireParity(t, prog.Words, 1_000_000, nil)
	for budget := uint64(0); budget <= full.cycles+8; budget++ {
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

// TestEngineParityBranchIntoFusedPair jumps into the middle of fusable
// pairs: the second component must still execute as a plain
// instruction, and the same pair must execute fused when entered from
// the top.
func TestEngineParityBranchIntoFusedPair(t *testing.T) {
	prog := MustAssemble(`
	li s0, 3
loop:
	beqz s0, done
	addi t1, t1, 1          ; \ fusable addi+addi pair
mid:
	addi t2, t2, 2          ; /
	addi s0, s0, -1
	j mid_entry
mid_entry:
	beq t3, zero, enter_mid
	j loop
enter_mid:
	addi t3, t3, 1
	j mid                   ; enters the pair at its second word
done:
	srli t4, t1, 1          ; \ fusable shift pair, fall-through only
	slli t4, t4, 2          ; /
	halt
`)
	out := requireParity(t, prog.Words, 100000, nil)
	if !out.halted {
		t.Fatalf("program did not halt: %q", out.errStr)
	}
}

func TestEngineParityFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want error
	}{
		{"unaligned load", "li t0, 0x202\nlw t1, 0(t0)\nhalt\n", ErrUnalignedWord},
		{"unaligned store", "li t0, 0x202\nsw t1, 0(t0)\nhalt\n", ErrUnalignedWord},
		{"unmapped load", "li t0, 0x20000\nlw t1, 0(t0)\nhalt\n", ErrBusFault},
		{"unmapped store", "li t0, 0x20000\nsw t1, 0(t0)\nhalt\n", ErrBusFault},
		{"byte load fault", "li t0, 0x10000\nlb t1, 0(t0)\nhalt\n", ErrBusFault},
		{"byte store fault", "li t0, 0x10000\nsb t1, 0(t0)\nhalt\n", ErrBusFault},
		{"jalr out of range", "li t0, 0x40000\njalr ra, t0, 0\nhalt\n", ErrPCOutOfRange},
		{"fused pair store fault", "li t0, 0x20000\naddi t0, t0, 4\nsw t1, 0(t0)\nhalt\n", ErrBusFault},
		{"fused load pair fault", "li t0, 0x20000\nlw t1, 0x200(zero)\nlw t2, 0(t0)\nhalt\n", ErrBusFault},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustAssemble(tc.src)
			out := requireParity(t, prog.Words, 100000, nil)
			if out.errStr == "" {
				t.Fatal("expected a fault")
			}
			ref, _ := runOneEngine(EngineRef, prog.Words, 100000, nil)
			_ = ref
			c := New()
			c.Engine = EngineFast
			if err := c.LoadProgram(prog.Words); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(100000); !errors.Is(err, tc.want) {
				t.Fatalf("fault class: got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestEngineParityIllegalOpcode injects raw words whose 6-bit op field
// lies outside the ISA (it would alias the internal superinstruction
// codes if predecode stored it raw).
func TestEngineParityIllegalOpcode(t *testing.T) {
	for _, rawOp := range []uint32{uint32(numOpcodes), 40, 63} {
		words := []uint32{encI(OpADDI, 1, 0, 5), rawOp << 26}
		out := requireParity(t, words, 1000, nil)
		if out.errStr == "" {
			t.Fatalf("raw op %d: expected illegal-opcode fault", rawOp)
		}
	}
}

// TestEngineParityKalmanBudgetSweep drives the fast engine's
// checkpoint budget scheme through the Kalman program — the workload
// whose decode array actually contains quad superinstructions — by
// sampling cycle budgets across the whole run with a prime stride,
// plus every budget in the final stretch where the halt lands. At each
// sampled budget the run is forced through the threshold check and the
// runTail handoff at a different record, so a checkpoint that flushes
// wrong state or a record with a mis-declared straight-line cost shows
// up as a state divergence.
func TestEngineParityKalmanBudgetSweep(t *testing.T) {
	prog, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float32, 6)
	for i := range z {
		z[i] = 4 + float32(i)*0.125
	}
	setup := func(c *CPU) { SetKalmanInputs(c, 1e-4, 0.04, 1, 0, z) }
	full, err := runOneEngine(EngineRef, prog.Words, KalmanRunBudget(len(z)), setup)
	if err != nil {
		t.Fatal(err)
	}
	check := func(budget uint64) {
		ref, err := runOneEngine(EngineRef, prog.Words, budget, setup)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range nonRefEngines {
			got, err := runOneEngine(eng, prog.Words, budget, setup)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffOutcomes(ref, got); d != "" {
				t.Fatalf("budget %d, engine %s: %s", budget, engineName(eng), d)
			}
		}
	}
	for budget := uint64(0); budget < full.cycles; budget += 211 {
		check(budget)
	}
	for budget := full.cycles - 16; budget <= full.cycles+8; budget++ {
		check(budget)
	}
}

// TestEngineParityKalmanEveryBudget sweeps EVERY cycle budget across
// one full softfloat Kalman update on every engine under test. Each
// budget lands the expiry at a different instruction — including
// inside every SoftFloat call the kernel or an intrinsic record lowers
// to a native mirror — pinning the no-partial-intrinsic rule: a mirror
// either covers its whole dynamic cost or declines before touching
// anything, so budget handoff always happens at an instruction
// boundary with state the reference engine can reproduce exactly.
func TestEngineParityKalmanEveryBudget(t *testing.T) {
	prog, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	z := []float32{4.125}
	setup := func(c *CPU) { SetKalmanInputs(c, 1e-4, 0.04, 1, 0, z) }
	full, err := runOneEngine(EngineRef, prog.Words, KalmanRunBudget(len(z)), setup)
	if err != nil {
		t.Fatal(err)
	}
	if !full.halted {
		t.Fatalf("full run did not halt: %q", full.errStr)
	}
	step := uint64(1)
	if testing.Short() {
		step = 13
	}
	for budget := uint64(0); budget <= full.cycles+8; budget += step {
		ref, err := runOneEngine(EngineRef, prog.Words, budget, setup)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range nonRefEngines {
			got, err := runOneEngine(eng, prog.Words, budget, setup)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffOutcomes(ref, got); d != "" {
				t.Fatalf("budget %d, engine %s: %s", budget, engineName(eng), d)
			}
		}
	}
}

func TestEngineParitySoftFloatKalman(t *testing.T) {
	prog, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float32, 48)
	for i := range z {
		z[i] = 5 + float32(math.Sin(float64(i)))*0.25
	}
	setup := func(c *CPU) { SetKalmanInputs(c, 1e-4, 0.04, 1, 0, z) }
	out := requireParity(t, prog.Words, KalmanRunBudget(len(z)), setup)
	if !out.halted {
		t.Fatalf("kalman program did not halt: %q", out.errStr)
	}

	// The high-level runners must agree too.
	ref, err := RunKalmanEngine(EngineRef, 1e-4, 0.04, 1, 0, z)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range nonRefEngines {
		eng, restore := withEngine(e)
		fast, err := RunKalmanEngine(eng, 1e-4, 0.04, 1, 0, z)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		name := engineName(e)
		if ref.TotalCycles != fast.TotalCycles || ref.Instructions != fast.Instructions {
			t.Fatalf("cycle counts: ref %d/%d, %s %d/%d",
				ref.TotalCycles, ref.Instructions, name, fast.TotalCycles, fast.Instructions)
		}
		for i := range ref.Estimates {
			if math.Float32bits(ref.Estimates[i]) != math.Float32bits(fast.Estimates[i]) {
				t.Fatalf("estimate %d: ref %v, %s %v", i, ref.Estimates[i], name, fast.Estimates[i])
			}
		}
		if math.Float32bits(ref.FinalP) != math.Float32bits(fast.FinalP) {
			t.Fatalf("final P: ref %v, %s %v", ref.FinalP, name, fast.FinalP)
		}
	}
}

func TestEngineParityFxBoresight(t *testing.T) {
	cfg := fxcore.Config{MeasNoise: 0.05, InitAngleSigma: 0.1, AngleWalk: 1e-3}
	inputs := make([]FxBoresightInput, 8)
	for i := range inputs {
		inputs[i] = FxBoresightInput{
			F:  geom.Vec3{0.3, -0.2, 9.7},
			AX: 0.31, AY: -0.18,
		}
	}
	ref, err := RunFxBoresightEngine(EngineRef, cfg, 0.02, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range nonRefEngines {
		eng, restore := withEngine(e)
		fast, err := RunFxBoresightEngine(eng, cfg, 0.02, inputs)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		name := engineName(e)
		if ref.TotalCycles != fast.TotalCycles {
			t.Fatalf("cycles: ref %d, %s %d", ref.TotalCycles, name, fast.TotalCycles)
		}
		for i := range ref.States {
			if ref.States[i] != fast.States[i] {
				t.Fatalf("state %d: ref %v, %s %v", i, ref.States[i], name, fast.States[i])
			}
		}
	}
}

// runControlEngine runs the never-halting UART parsing program for
// budget cycles on an engine under test, with one ACC packet and one
// DMU bridge frame waiting on its serial links. The outcome's trace is
// the final LED value.
func runControlEngine(e Engine, budget uint64) (*engineOutcome, error) {
	eng, restore := withEngine(e)
	defer restore()
	c, leds, err := controlCPU()
	if err != nil {
		return nil, err
	}
	c.Engine = eng
	var st CompiledStats
	c.CollectCompiledStats(&st)
	ran, err := c.Run(budget)
	if !errors.Is(err, ErrCycleLimit) {
		return nil, fmt.Errorf("control program: ran %d, err %v", ran, err)
	}
	return &engineOutcome{
		ran: ran, errStr: err.Error(), pc: c.PC, regs: c.R,
		cycles: c.Cycles, instret: c.Instret, halted: c.Halted,
		data:  append([]byte(nil), c.Data...),
		trace: []periphEvent{{false, 0, leds.Value}},
		stats: st,
	}, nil
}

// controlCPU returns the control program's CPU with one accelerometer
// packet and one DMU bridge frame queued on its serial ports.
func controlCPU() (*CPU, *LEDs, error) {
	c, dmu, acc, _, leds, err := ControlCPU()
	if err != nil {
		return nil, nil, err
	}
	payload := []byte{0x12, 0x34, 0x0B, 0xCD, 0x10, 0x00}
	var sum byte
	for _, b := range payload {
		sum += b
	}
	acc.Feed(append(append([]byte{0xC5}, payload...), byte(-sum)))
	// DMU bridge frame for accel CAN id 0x101: three big-endian
	// int16 counts + seq + reserved.
	data := []byte{0x03, 0xE8, 0xF8, 0x30, 0x0B, 0xB8, 7, 0}
	body := append([]byte{0x01, 0x01, 8}, data...)
	var dsum byte
	for _, b := range body {
		dsum += b
	}
	dmu.Feed(append(append([]byte{0xAA, 0x55}, body...), byte(-dsum)))
	return c, leds, nil
}

// TestEngineParityControl runs the never-halting UART parsing program
// to its cycle budget on every engine with identical serial input.
func TestEngineParityControl(t *testing.T) {
	ref, err := runControlEngine(EngineRef, 30000)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range nonRefEngines {
		got, err := runControlEngine(eng, 30000)
		if err != nil {
			t.Fatalf("%s: %v", engineName(eng), err)
		}
		if d := diffOutcomes(ref, got); d != "" {
			t.Fatalf("control program divergence on %s: %s", engineName(eng), d)
		}
	}
}

// fuzzWords shapes arbitrary bytes into a mostly-valid program: opcodes
// are folded into ISA range (words ending in 0x3F keep their raw,
// illegal opcode so the illegal path stays covered), and memory/branch
// immediates are truncated so runs spend time executing rather than
// faulting on the first wild address.
func fuzzWords(data []byte) []uint32 {
	n := len(data) / 4
	if n > ProgWords {
		n = ProgWords
	}
	words := make([]uint32, n)
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint32(data[4*i:])
		op := w >> 26
		if op >= uint32(numOpcodes) && op != 63 {
			w = w&^(uint32(0x3F)<<26) | (op%uint32(numOpcodes))<<26
			op = w >> 26
		}
		switch Opcode(op) {
		case OpLW, OpLB, OpLBU, OpSW, OpSB:
			w &^= 0x3FF00 // offsets in [0,255]
		case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
			w &^= 0x3FF80 // branch offsets in [0,127]
		case OpJAL:
			w &^= 0x3FFF80 // jump offsets in [0,127]
		}
		words[i] = w
	}
	return words
}

// FuzzEngineParity feeds arbitrary programs and cycle budgets through
// the reference and fast engines and requires bit-identical outcomes.
// The test-side modes would add nothing: a random program matches no
// SoftFloat blob and no kernel.
func FuzzEngineParity(f *testing.F) {
	kal, err := KalmanProgram()
	if err != nil {
		f.Fatal(err)
	}
	seed := make([]byte, 4*200)
	for i := 0; i < 200; i++ {
		binary.LittleEndian.PutUint32(seed[4*i:], kal.Words[i])
	}
	f.Add(seed, uint32(50000))
	isa := MustAssemble(isaExercise)
	seed2 := make([]byte, 4*len(isa.Words))
	for i, w := range isa.Words {
		binary.LittleEndian.PutUint32(seed2[4*i:], w)
	}
	f.Add(seed2, uint32(1000))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00}, uint32(10))

	f.Fuzz(func(t *testing.T, data []byte, budget uint32) {
		words := fuzzWords(data)
		maxCycles := uint64(budget % 200000)
		ref, err := runOneEngine(EngineRef, words, maxCycles, nil)
		if err != nil {
			t.Skip() // program too large to load etc.
		}
		got, err := runOneEngine(EngineFast, words, maxCycles, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffOutcomes(ref, got); d != "" {
			t.Fatalf("engine fast divergence: %s", d)
		}
	})
}

// TestEngineParityRandomPrograms runs a deterministic batch of
// LCG-generated programs through the same comparison as the fuzz
// target, so `go test` alone exercises the random-program parity path.
func TestEngineParityRandomPrograms(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint32 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return uint32(rng >> 32)
	}
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 4*64)
		for i := 0; i < len(data); i += 4 {
			binary.LittleEndian.PutUint32(data[i:], next())
		}
		words := fuzzWords(data)
		maxCycles := uint64(next() % 20000)
		ref, err := runOneEngine(EngineRef, words, maxCycles, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runOneEngine(EngineFast, words, maxCycles, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffOutcomes(ref, got); d != "" {
			t.Fatalf("trial %d: engine fast divergence: %s", trial, d)
		}
	}
}
