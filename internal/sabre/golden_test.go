package sabre

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"boresight/internal/fxcore"
	"boresight/internal/geom"
)

// intTrackMain is an integer-only sensor-conditioning loop written for
// the tests and benchmarks of programs without a kernel; no generated
// kernel knows it. Per sample it takes the innovation against a tracker state,
// measures the innovation's bit length with a shift loop (a block whose
// branch targets its own entry), moves the tracker by the innovation
// scaled down by that length, clamps the tracker to ±limit, and folds
// it into a rotating checksum and an energy sum.
const intTrackMain = `
	lw s0, 0(zero)          ; sample count
	li s1, 0x100            ; input pointer
	li s2, 0x4000           ; output pointer
	lw fp, 4(zero)          ; tracker state
	lw sp, 8(zero)          ; clamp limit
	li t3, 0x2F6B           ; checksum
	li ra, 0                ; energy
	beqz s0, it_done
it_loop:
	lw a0, 0(s1)
	sub a1, a0, fp          ; innovation
	srai a2, a1, 31
	xor a3, a1, a2
	sub a3, a3, a2          ; |innovation|
	li t0, 0
	beqz a3, it_len_done
it_len:
	srli a3, a3, 1
	addi t0, t0, 1
	bnez a3, it_len
it_len_done:
	li t1, 18
	sub t1, t1, t0          ; gain shift: large innovations move it faster
	sra a1, a1, t1
	add fp, fp, a1
	blt fp, sp, it_nohi
	mv fp, sp
it_nohi:
	neg t2, sp
	bge fp, t2, it_nolo
	mv fp, t2
it_nolo:
	sw fp, 0(s2)
	mul t4, fp, fp
	srli t4, t4, 8
	add ra, ra, t4
	xor t3, t3, fp
	slli a2, t3, 5
	srli t3, t3, 27
	or t3, t3, a2
	addi s1, s1, 4
	addi s2, s2, 4
	addi s0, s0, -1
	bnez s0, it_loop
it_done:
	sw t3, 12(zero)
	sw ra, 16(zero)
	halt
`

// intTrackSamples is the intTrackMain input: a triangle wave of
// amplitude 12000 with LCG noise, n samples.
func intTrackSamples(n int) []int32 {
	s := make([]int32, n)
	x := uint32(0x1234567)
	for i := range s {
		x = x*1664525 + 1013904223
		tri := int32(i%128) - 64
		if tri < 0 {
			tri = -tri
		}
		s[i] = (tri-32)*375 + int32(x>>21) - 1024
	}
	return s
}

// intTrackSetup writes intTrackMain's inputs to data memory.
func intTrackSetup(samples []int32) func(*CPU) {
	return func(c *CPU) {
		c.StoreWord(0, uint32(len(samples)))
		c.StoreWord(4, 0)
		c.StoreWord(8, 9000)
		for i, v := range samples {
			c.StoreWord(uint32(0x100+4*i), uint32(v))
		}
	}
}

// intTrackBudget bounds one intTrackMain run of n samples.
func intTrackBudget(n int) uint64 { return 400*uint64(n) + 1000 }

// stateCRC is the CRC-32 (IEEE) of the architectural state a golden
// pins beyond the counters: PC, the register file and all of data RAM.
func stateCRC(o *engineOutcome) uint32 {
	var regs [4 * 17]byte
	binary.LittleEndian.PutUint32(regs[:], o.pc)
	for i, v := range o.regs {
		binary.LittleEndian.PutUint32(regs[4*(i+1):], v)
	}
	h := crc32.NewIEEE()
	h.Write(regs[:])
	h.Write(o.data)
	return h.Sum32()
}

// programGolden is one program, how to run it, and its pinned outcome.
// kernels is the number of generated-kernel dispatches the run takes on
// EngineFast: one for the two programs that have a kernel, none for
// every other. records is the number of records the fast engine
// dispatches for the run with its kernels bypassed (fusedRecords).
type programGolden struct {
	name            string
	words           []uint32 // nil: the control program, on controlCPU
	setup           func(*CPU)
	budget          uint64
	cycles, instret uint64
	crc             uint32
	kernels         uint64
	records         uint64
}

// run runs g on an engine under test. Every program but the control
// program must halt cleanly within its budget; the control program
// never halts and runs to its budget.
func (g *programGolden) run(e Engine) (*engineOutcome, error) {
	if g.words == nil {
		return runControlEngine(e, g.budget)
	}
	out, err := runOneEngine(e, g.words, g.budget, g.setup)
	if err == nil && (!out.halted || out.errStr != "") {
		err = fmt.Errorf("program did not halt cleanly: %q", out.errStr)
	}
	return out, err
}

// pcTrace runs g on the reference engine one Step at a time and
// returns the CPU and the pc of every instruction it retired, in order.
func (g *programGolden) pcTrace() (*CPU, []uint32, error) {
	var c *CPU
	var err error
	if g.words == nil {
		c, _, err = controlCPU()
	} else {
		c, _, err = engineCPU(g.words, g.setup)
	}
	if err != nil {
		return nil, nil, err
	}
	trace := make([]uint32, 0, g.instret)
	for !c.Halted && c.Cycles < g.budget {
		trace = append(trace, c.PC)
		if err := c.Step(); err != nil {
			return nil, nil, err
		}
	}
	return c, trace, nil
}

// programGoldens lists the pinned programs: the bundled SoftFloat
// Kalman, fixed-point boresight and Q16.16 Kalman units, the control
// program to a fixed budget on fixed serial input, and the two
// runtime-assembled programs no generated kernel covers.
func programGoldens(t *testing.T) []programGolden {
	t.Helper()
	assemble := func(src string) []uint32 {
		p, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return p.Words
	}
	kal, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	fxb, err := FxBoresightProgram()
	if err != nil {
		t.Fatal(err)
	}
	fxk := assemble(fxKalmanMain)
	alpha := assemble(alphaFilterMain + Library())
	track := assemble(intTrackMain)

	kz := make([]float32, 40)
	for i := range kz {
		kz[i] = 3.25 + float32((i*2654435761)%1000-500)/2000
	}
	fxIn := make([]FxBoresightInput, 12)
	for i := range fxIn {
		fxIn[i] = FxBoresightInput{
			F:  geom.Vec3{0.3 + 0.01*float64(i), -0.2, 9.7},
			AX: 0.31, AY: -0.18 + 0.005*float64(i),
		}
	}
	az := make([]float32, 24)
	for i := range az {
		az[i] = 3 + float32(i%5)*0.25
	}
	samples := intTrackSamples(512)

	return []programGolden{
		{name: "Kalman", words: kal.Words, budget: KalmanRunBudget(len(kz)), setup: func(c *CPU) {
			SetKalmanInputs(c, 1e-4, 0.04, 1, 0, kz)
		}, cycles: 51907, instret: 40415, crc: 0x7ad47c77, kernels: 1, records: 845},
		{name: "FxBoresight", words: fxb.Words, budget: FxBoresightRunBudget(len(fxIn)), setup: func(c *CPU) {
			LoadFxBoresightInputs(c, fxcore.DefaultConfig(), 0.01, fxIn)
		}, cycles: 88590, instret: 66556, crc: 0x66222f56, kernels: 1, records: 42016},
		{name: "FxKalman", words: fxk, budget: 32*2000 + 1000, setup: func(c *CPU) {
			c.StoreWord(fxkN, 32)
			c.StoreWord(fxkQ, uint32(q16(1e-3)))
			c.StoreWord(fxkR, uint32(q16(0.04)))
			c.StoreWord(fxkP, uint32(q16(1)))
			c.StoreWord(fxkX, 0)
			for i := 0; i < 32; i++ {
				c.StoreWord(uint32(fxkZIn+4*i), uint32(q16(2+0.125*float64(i%9))))
			}
		}, cycles: 6442, instret: 5075, crc: 0x37653a44, records: 2161},
		{name: "Control", budget: 200_000,
			cycles: 200000, instret: 131064, crc: 0xf9a8d235, records: 89672},
		{name: "AlphaFilter", words: alpha, budget: 2_000_000, setup: alphaFilterSetup(az),
			cycles: 32438, instret: 27664, crc: 0xde8db2a4, records: 366},
		{name: "IntTrack", words: track, budget: intTrackBudget(len(samples)), setup: intTrackSetup(samples),
			cycles: 41805, instret: 32379, crc: 0xe58a690f, records: 23462},
	}
}

// TestSabreProgramGoldens pins each program's cycles, retired
// instructions and state CRC across commits, on the reference engine
// and every engine under test, and which programs bind a generated
// kernel. Engine parity holds the engines to each other within one
// commit; a change that shifted every engine at once (a cost-model or
// assembler edit) would pass parity and fail here. An intended change
// re-pins the values and says so in CHANGES.md.
func TestSabreProgramGoldens(t *testing.T) {
	for _, g := range programGoldens(t) {
		for _, e := range append([]Engine{EngineRef}, nonRefEngines...) {
			out, err := g.run(e)
			if err != nil {
				t.Fatalf("%s on %s: %v", g.name, engineName(e), err)
			}
			if crc := stateCRC(out); out.cycles != g.cycles || out.instret != g.instret || crc != g.crc {
				t.Errorf("%s on %s: cycles %d instret %d crc %#08x, want %d %d %#08x",
					g.name, engineName(e), out.cycles, out.instret, crc,
					g.cycles, g.instret, g.crc)
			}
			want := uint64(0)
			if e == EngineFast {
				want = g.kernels
			}
			if k := out.stats.Dispatches[dispKernel]; k != want {
				t.Errorf("%s on %s: %d kernel dispatches, want %d", g.name, engineName(e), k, want)
			}
			if n := out.stats.IntrinsicCalls; e == engineInterp && n != 0 {
				t.Errorf("%s on interp: %d intrinsic calls, want 0", g.name, n)
			}
		}
	}
}

// fusedRecords replays a reference pc trace over the fused decode array
// and counts the records the fast engine dispatches to retire it: a
// record retires its components while the trace runs on in sequence,
// and an intrinsic record stands for the whole routine its mirror runs.
// The budget endgame, which hands a run's last stretch to the reference
// loop, is left out: the count covers the whole trace.
func fusedRecords(dec []decoded, trace []uint32) uint64 {
	var n uint64
	for i := 0; i < len(trace); n++ {
		pc := trace[i]
		i++
		if dec[pc].op == xopIntrin {
			for i < len(trace) && trace[i] != pc+1 {
				i++
			}
			continue
		}
		for k := uint32(1); k < recordWords(dec[pc].op) && i < len(trace) && trace[i] == pc+k; k++ {
			i++
		}
	}
	return n
}

// recordWords is the number of program words a record covers.
func recordWords(op uint8) uint32 {
	switch {
	case op < uint8(numOpcodes):
		return 1
	case op >= xqSRLISLLISLLIBNE && op < xopIntrin:
		return 4
	}
	return 2
}

// TestSabreProgramRecords pins how many records the fast engine
// dispatches for each golden program with its kernels bypassed, so
// that the fusion patterns can shrink only where no program pays for
// it in dispatches.
func TestSabreProgramRecords(t *testing.T) {
	for _, g := range programGoldens(t) {
		c, trace, err := g.pcTrace()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if uint64(len(trace)) != g.instret {
			t.Fatalf("%s: traced %d instructions, want %d", g.name, len(trace), g.instret)
		}
		c.predecode()
		if n := fusedRecords(c.dec, trace); n != g.records {
			t.Errorf("%s: %d records dispatched, want %d", g.name, n, g.records)
		}
	}
}
