package sabre

import (
	"bytes"
	"fmt"
	"testing"
)

// intrinCase names one mirrored routine and how to invoke it.
type intrinCase struct {
	sym     string
	handler intrinHandler
	cmpLib  bool // entry lives in the compare blob
	unary   bool // only a0 is an operand
}

func intrinCases() []intrinCase {
	return []intrinCase{
		{"f32_add", tryIntrinF32Add, false, false},
		{"f32_sub", tryIntrinF32Sub, false, false},
		{"f32_mul", tryIntrinF32Mul, false, false},
		{"f32_div", tryIntrinF32Div, false, false},
		{"f32_sqrt", tryIntrinF32Sqrt, false, true},
		{"f32_from_i32", tryIntrinF32FromI32, false, true},
		{"f32_to_i32", tryIntrinF32ToI32, false, true},
		{"f32_cmp_eq", tryIntrinF32Eq, true, false},
		{"f32_cmp_lt", tryIntrinF32Lt, true, false},
		{"f32_cmp_le", tryIntrinF32Le, true, false},
	}
}

// intrinOperands is the curated corpus: zeros of both signs, denormal
// extremes, powers of two, NaN/Inf encodings, values straddling the
// to_i32 saturation boundary, and ordinary mid-range floats.
var intrinOperands = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF,
	0x807FFFFF, 0x00800000, 0x80800000, 0x3F800000, 0xBF800000,
	0x3F800001, 0x40000000, 0x40490FDB, 0xC0490FDB, 0x3EAAAAAB,
	0x7F7FFFFF, 0xFF7FFFFF, 0x7F000000, 0x7F800000, 0xFF800000,
	0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF923456, 0x00400000,
	0x34000000, 0x4B800000, 0xCF000000, 0x4F000000, 0x5F000000,
	0x3FFFFFFF, 0x1E3CE508, 0x4EFFFFFF, 0x4F000001, 0xCEFFFFFF,
	0xCF000001, 0x3F000000, 0x3EFFFFFF, 0x4B000001, 0xCB000001,
}

// intrinProgram assembles `jal ra, <sym>; halt` in front of the
// library, returning the words and the blob base word offset the
// handler needs.
func intrinProgram(t *testing.T, sym string, cmpLib bool) ([]uint32, uint32) {
	t.Helper()
	p, err := Assemble("start:\n  jal r15, " + sym + "\n  halt\n" + Library())
	if err != nil {
		t.Fatalf("assemble %s harness: %v", sym, err)
	}
	lb := uint32(2)
	if cmpLib {
		lb += uint32(len(sfOff.arith))
	}
	return p.Words, lb
}

// setIntrinRegs fills every register with a distinctive value so the
// mirrors' junk-register reproduction is actually exercised.
func setIntrinRegs(c *CPU, a, b, sp uint32) {
	for i := 1; i < 16; i++ {
		c.R[i] = 0xC0DE0000 + uint32(i)*0x01010101
	}
	c.R[1], c.R[2], c.R[14] = a, b, sp
}

// runIntrinRef executes the harness on the reference engine.
func runIntrinRef(t *testing.T, words []uint32, a, b, sp uint32) *engineOutcome {
	t.Helper()
	c := New()
	c.Engine = EngineRef
	if err := c.LoadProgram(words); err != nil {
		t.Fatalf("load: %v", err)
	}
	setIntrinRegs(c, a, b, sp)
	if _, err := c.Run(1 << 20); err != nil {
		t.Fatalf("ref run: %v", err)
	}
	return &engineOutcome{
		pc: c.PC, regs: c.R, cycles: c.Cycles, instret: c.Instret,
		halted: c.Halted, data: append([]byte(nil), c.Data...),
	}
}

// checkIntrinOne runs one (routine, a, b, sp) case through the
// reference engine and the mirror and requires identical outcomes.
func checkIntrinOne(t *testing.T, tc intrinCase, words []uint32, lb uint32, a, b, sp uint32) {
	t.Helper()
	ref := runIntrinRef(t, words, a, b, sp)

	c := New()
	if err := c.LoadProgram(words); err != nil {
		t.Fatalf("load: %v", err)
	}
	setIntrinRegs(c, a, b, sp)
	st := &cst{r: &c.R, data: (*[DataBytes]byte)(c.Data), stop: 1 << 62}
	ncyc, nins, ok := tc.handler(c, st, 0, 0, 4, lb)
	label := fmt.Sprintf("%s(a=%08x b=%08x sp=%#x)", tc.sym, a, b, sp)
	if !ok {
		t.Fatalf("%s: handler declined", label)
	}
	// The reference outcome includes the final halt (1 cycle, 1 instr).
	if ncyc != ref.cycles-1 || nins != ref.instret-1 {
		t.Fatalf("%s: cost mismatch: mirror %d cyc %d ins, ref %d cyc %d ins",
			label, ncyc, nins, ref.cycles-1, ref.instret-1)
	}
	if c.R != ref.regs {
		for i := range c.R {
			if c.R[i] != ref.regs[i] {
				t.Fatalf("%s: r%d mismatch: mirror %08x ref %08x", label, i, c.R[i], ref.regs[i])
			}
		}
	}
	if !bytes.Equal(c.Data, ref.data) {
		for i := range c.Data {
			if c.Data[i] != ref.data[i] {
				t.Fatalf("%s: data[%#x] mismatch: mirror %02x ref %02x", label, i, c.Data[i], ref.data[i])
			}
		}
	}

	// Pin the budget-boundary rule: with exactly the routine's cost
	// remaining the intrinsic must decline (cycles would reach stop
	// mid-routine handoff territory); with one more cycle it fires.
	c2 := New()
	if err := c2.LoadProgram(words); err != nil {
		t.Fatalf("load: %v", err)
	}
	setIntrinRegs(c2, a, b, sp)
	st2 := &cst{r: &c2.R, data: (*[DataBytes]byte)(c2.Data), stop: ncyc}
	if _, _, ok := tc.handler(c2, st2, 0, 0, 4, lb); ok {
		t.Fatalf("%s: fired with budget == cost", label)
	}
	st2.stop = ncyc + 1
	if _, _, ok := tc.handler(c2, st2, 0, 0, 4, lb); !ok {
		t.Fatalf("%s: declined with budget == cost+1", label)
	}
}

// TestIntrinsicMirrorsExact validates every mirror against the
// reference engine over the curated corpus plus deterministic random
// operands: result bits, every register, all of data memory, and the
// exact cycle/instret cost.
func TestIntrinsicMirrorsExact(t *testing.T) {
	const sp = 0x8000
	for _, tc := range intrinCases() {
		tc := tc
		t.Run(tc.sym, func(t *testing.T) {
			words, lb := intrinProgram(t, tc.sym, tc.cmpLib)
			if tc.unary {
				for _, a := range intrinOperands {
					checkIntrinOne(t, tc, words, lb, a, 0xB0B0B0B0, sp)
				}
			} else {
				for _, a := range intrinOperands {
					for _, b := range intrinOperands {
						checkIntrinOne(t, tc, words, lb, a, b, sp)
					}
				}
			}
			// Deterministic xorshift operands: mid-range payloads the
			// curated set misses (shift-and-jam tails, sticky bits).
			s := uint32(0x2545F491)
			rnd := func() uint32 {
				s ^= s << 13
				s ^= s >> 17
				s ^= s << 5
				return s
			}
			n := 400
			if testing.Short() {
				n = 60
			}
			for i := 0; i < n; i++ {
				checkIntrinOne(t, tc, words, lb, rnd(), rnd(), sp)
			}
			// Integer-flavoured operands for the conversions.
			for i := 0; i < n; i++ {
				checkIntrinOne(t, tc, words, lb, rnd()>>uint(i%32), rnd(), sp)
			}
		})
	}
}

// FuzzSoftFloatIntrinsics is the differential fuzz of every intrinsic
// mirror against the emulated assembly routine: random operand pairs
// (seeded with NaN/Inf/denormal/zero-sign encodings) must produce
// identical result bits, registers, data memory, and cycle/instret
// deltas, with the budget-boundary decline rule held at exactly the
// routine's cost.
func FuzzSoftFloatIntrinsics(f *testing.F) {
	cases := intrinCases()
	progs := make([][]uint32, len(cases))
	lbs := make([]uint32, len(cases))
	for i, tc := range cases {
		p, err := Assemble("start:\n  jal r15, " + tc.sym + "\n  halt\n" + Library())
		if err != nil {
			f.Fatalf("assemble %s harness: %v", tc.sym, err)
		}
		progs[i] = p.Words
		lbs[i] = 2
		if tc.cmpLib {
			lbs[i] += uint32(len(sfOff.arith))
		}
	}
	// Seed every routine with the special encodings: quiet/signalling
	// NaN, both infinities, signed zeros, denormal extremes, and the
	// to_i32 saturation straddle.
	seeds := []uint32{
		0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000,
		0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,
		0x3F800000, 0x4EFFFFFF, 0x4F000001, 0xCF000001,
	}
	for i := range cases {
		for j, a := range seeds {
			f.Add(uint8(i), a, seeds[(j+5)%len(seeds)])
		}
	}
	f.Fuzz(func(t *testing.T, idx uint8, a, b uint32) {
		i := int(idx) % len(cases)
		checkIntrinOne(t, cases[i], progs[i], lbs[i], a, b, 0x8000)
	})
}

// TestIntrinsicSPGuard pins the eligibility rule: misaligned or
// out-of-range stack pointers decline and leave the machine untouched.
func TestIntrinsicSPGuard(t *testing.T) {
	for _, tc := range intrinCases() {
		words, lb := intrinProgram(t, tc.sym, tc.cmpLib)
		for _, sp := range []uint32{2, 63, 0x8001, 0x8002, DataBytes + 4, 0xFFFFFFFC} {
			c := New()
			if err := c.LoadProgram(words); err != nil {
				t.Fatalf("load: %v", err)
			}
			setIntrinRegs(c, 0x3F800000, 0x40000000, sp)
			regs := c.R
			st := &cst{r: &c.R, data: (*[DataBytes]byte)(c.Data), stop: 1 << 62}
			if _, _, ok := tc.handler(c, st, 0, 0, 4, lb); ok && tc.sym != "f32_to_i32" && tc.sym != "f32_from_i32" {
				t.Fatalf("%s: fired with sp=%#x", tc.sym, sp)
			}
			if c.R != regs && tc.sym != "f32_to_i32" && tc.sym != "f32_from_i32" {
				t.Fatalf("%s: declined handler mutated registers at sp=%#x", tc.sym, sp)
			}
		}
	}
}

// TestCostHooks holds the contract of RoutineCost, the query cmd/sabre
// asks the mirrors' costs through: every mirrored routine answers, a
// routine without a mirror (f32_neg) or outside the library reports
// ok=false, and for the full curated operand corpus each answer's
// result bits and cycle/instret cost equal those of the emulated
// assembly routine run on the reference engine.
func TestCostHooks(t *testing.T) {
	for _, name := range []string{"f32_neg", "f64_add"} {
		if _, _, _, ok := RoutineCost(name, 0, 0); ok {
			t.Fatalf("RoutineCost reported ok for %s, which has no mirror", name)
		}
	}
	const sp = uint32(DataBytes / 2)
	for _, tc := range intrinCases() {
		tc := tc
		t.Run(tc.sym, func(t *testing.T) {
			words, _ := intrinProgram(t, tc.sym, tc.cmpLib)
			for i, a := range intrinOperands {
				b := uint32(0xB0B0B0B0)
				if !tc.unary {
					b = intrinOperands[(i*7+3)%len(intrinOperands)]
				}
				res, cyc, ins, ok := RoutineCost(tc.sym, a, b)
				if !ok {
					t.Fatalf("%s: no cost", tc.sym)
				}
				ref := runIntrinRef(t, words, a, b, sp)
				// The reference outcome includes the final halt (1 cycle,
				// 1 instruction); the cost covers the call alone.
				if res != ref.regs[1] || uint64(cyc) != ref.cycles-1 || uint64(ins) != ref.instret-1 {
					t.Fatalf("%s(a=%08x b=%08x): cost res %08x cost %d/%d, ref res %08x cost %d/%d",
						tc.sym, a, b, res, cyc, ins, ref.regs[1], ref.cycles-1, ref.instret-1)
				}
			}
		})
	}
}
