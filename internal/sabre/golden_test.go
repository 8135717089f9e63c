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
// the runtime tier's tests and benchmarks; no generated kernel knows
// it. Per sample it takes the innovation against a tracker state,
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
// EngineCompiled: one for the two programs that have a kernel, none
// for every other.
type programGolden struct {
	name            string
	run             func(eng Engine) (*engineOutcome, error)
	cycles, instret uint64
	crc             uint32
	kernels         uint64
}

// halting runs words to budget on an engine under test; the run must
// halt cleanly.
func halting(e Engine, words []uint32, setup func(*CPU), budget uint64) (*engineOutcome, error) {
	out, err := runOneEngine(e, words, budget, setup)
	if err == nil && (!out.halted || out.errStr != "") {
		err = fmt.Errorf("program did not halt cleanly: %q", out.errStr)
	}
	return out, err
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
		{name: "Kalman", cycles: 51907, instret: 40415, crc: 0x7ad47c77, kernels: 1, run: func(e Engine) (*engineOutcome, error) {
			return halting(e, kal.Words, func(c *CPU) {
				SetKalmanInputs(c, 1e-4, 0.04, 1, 0, kz)
			}, KalmanRunBudget(len(kz)))
		}},
		{name: "FxBoresight", cycles: 88590, instret: 66556, crc: 0x66222f56, kernels: 1, run: func(e Engine) (*engineOutcome, error) {
			return halting(e, fxb.Words, func(c *CPU) {
				LoadFxBoresightInputs(c, fxcore.DefaultConfig(), 0.01, fxIn)
			}, FxBoresightRunBudget(len(fxIn)))
		}},
		{name: "FxKalman", cycles: 6442, instret: 5075, crc: 0x37653a44, run: func(e Engine) (*engineOutcome, error) {
			return halting(e, fxk, func(c *CPU) {
				c.StoreWord(fxkN, 32)
				c.StoreWord(fxkQ, uint32(q16(1e-3)))
				c.StoreWord(fxkR, uint32(q16(0.04)))
				c.StoreWord(fxkP, uint32(q16(1)))
				c.StoreWord(fxkX, 0)
				for i := 0; i < 32; i++ {
					c.StoreWord(uint32(fxkZIn+4*i), uint32(q16(2+0.125*float64(i%9))))
				}
			}, 32*2000+1000)
		}},
		{name: "Control", cycles: 200000, instret: 131064, crc: 0xf9a8d235, run: func(e Engine) (*engineOutcome, error) {
			return runControlEngine(e, 200_000)
		}},
		{name: "AlphaFilter", cycles: 32438, instret: 27664, crc: 0xde8db2a4, run: func(e Engine) (*engineOutcome, error) {
			return halting(e, alpha, alphaFilterSetup(az), 2_000_000)
		}},
		{name: "IntTrack", cycles: 41805, instret: 32379, crc: 0xe58a690f, run: func(e Engine) (*engineOutcome, error) {
			return halting(e, track, intTrackSetup(samples), intTrackBudget(len(samples)))
		}},
	}
}

// TestSabreProgramGoldens pins each program's cycles, retired
// instructions and state CRC across commits, on all three engines and
// in runtime-only mode, and which programs bind a generated kernel.
// Engine parity holds the engines to each other within one commit; a
// change that shifted every engine at once (a cost-model or assembler
// edit) would pass parity and fail here. An intended change re-pins
// the values and says so in CHANGES.md.
func TestSabreProgramGoldens(t *testing.T) {
	for _, g := range programGoldens(t) {
		for _, e := range []Engine{EngineRef, EngineFast, EngineCompiled, engineRuntime} {
			out, err := g.run(e)
			if err != nil {
				t.Fatalf("%s on %s: %v", g.name, engineName(e), err)
			}
			if crc := stateCRC(out); out.cycles != g.cycles || out.instret != g.instret || crc != g.crc {
				t.Errorf("%s on %s: cycles %d instret %d crc %#08x, want %d %d %#08x",
					g.name, engineName(e), out.cycles, out.instret, crc,
					g.cycles, g.instret, g.crc)
			}
			if k := out.stats.Dispatches[blockKernel]; e == EngineCompiled && k != g.kernels {
				t.Errorf("%s on compiled: %d kernel dispatches, want %d", g.name, k, g.kernels)
			}
		}
	}
}
