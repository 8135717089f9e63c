package sabre

import (
	"encoding/binary"
	"math/bits"
)

// Native softfloat intrinsics.
//
// A `call f32_add` (or a call to any other routine of the bundled
// SoftFloat library) does not have to execute the emulated mantissa
// loops instruction by instruction: when the callee body is known to
// be the canonical library blob, the call can be lowered to a
// host-native mirror that computes the same result bits AND charges
// the exact dynamic cycle/instret cost the emulated routine would have
// spent. The fast engine lowers such calls at predecode (the
// intrinsic record, xopIntrin), and the generated kernels call the
// mirrors directly. The mirrors below follow the assembly of
// softfloat_asm.go path by path — every branch outcome adds the same
// cycle/instruction increments the reference engine's Step() would
// have charged, and every architectural side effect is reproduced:
//
//   - the result in a0 and the return address restored into ra,
//   - the exact scratch values the routine leaves in a1–a3/t0–t4
//     (engine parity compares the full register file, so "junk" is
//     architectural too),
//   - the stack frame words the routine pushes below sp (parity
//     compares all of data memory; the pushed words persist after the
//     epilogue pops them).
//
// Budget expiry stays instruction-boundary exact: an intrinsic fires
// only when the remaining cycle budget strictly covers the routine's
// full dynamic cost, so the counter invariant (cycles < stop at every
// checked head) holds at the resume label. In the narrow window where
// the budget expires inside the routine, the intrinsic declines and
// the emulated path runs with its ordinary checks.
//
// The per-path costs are validated exhaustively against the emulated
// routines by TestIntrinsicMirrorsExact and FuzzSoftFloatIntrinsics.

// sfLayout holds the canonical assembled SoftFloat blobs and the word
// offsets the mirrors need. The arithmetic library (SoftFloatLib) and
// the compare library (softFloatCompareLib) are position-independent
// — all control flow is pc-relative and each blob is self-contained —
// so a program containing either blob at any word offset runs the
// same code the mirrors model.
type sfLayout struct {
	arith []uint32 // SoftFloatLib assembled at offset 0
	cmp   []uint32 // softFloatCompareLib assembled at offset 0

	// Return-address word offsets (the word after an internal call
	// that pushes a frame below it), relative to the arith blob.
	retRPAdd   uint32 // after as_rp's      call sf_roundpack
	retRPAddEq uint32 // after as_eq_norm's call sf_roundpack
	retNRPSub  uint32 // after ss_norm's    call sf_normroundpack
	retRPMul   uint32 // after mul_rp's     call sf_roundpack
	retRPDiv   uint32 // after div_rp's     call sf_roundpack
	retRPSqrt  uint32 // after sq_pack's    call sf_roundpack
}

var sfOff sfLayout

// intrinHandler mirrors one library routine: on success it returns the
// advanced cycle/instret counters with every register and memory
// effect committed; on failure (unsuitable sp, or the budget expires
// inside the routine) nothing is touched and the emulated path runs.
type intrinHandler func(c *CPU, st *cst, cyc, ins uint64, ra, lb uint32) (uint64, uint64, bool)

// mirrors lists every native mirror with the routine it follows and
// the blob that routine lives in. An intrinsic record names its mirror
// by index here.
var mirrors = [...]struct {
	sym string
	fn  intrinHandler
	cmp bool // the routine is in the compare blob
}{
	{"f32_add", tryIntrinF32Add, false},
	{"f32_sub", tryIntrinF32Sub, false},
	{"f32_mul", tryIntrinF32Mul, false},
	{"f32_div", tryIntrinF32Div, false},
	{"f32_sqrt", tryIntrinF32Sqrt, false},
	{"f32_from_i32", tryIntrinF32FromI32, false},
	{"f32_to_i32", tryIntrinF32ToI32, false},
	{"f32_cmp_eq", tryIntrinF32Eq, true},
	{"f32_cmp_lt", tryIntrinF32Lt, true},
	{"f32_cmp_le", tryIntrinF32Le, true},
}

// arithIntrins/cmpIntrins map a routine's entry offset within its blob
// to its index in mirrors, for predecode's call lowering and the
// kernel generator (kernelgen_test.go).
var arithIntrins = map[uint32]uint8{}
var cmpIntrins = map[uint32]uint8{}

// callAfter finds the first JAL to target at or after sym and returns
// the offset of the word following it (the pushed return address).
func callAfter(p *Program, sym string, target uint32) uint32 {
	start, ok := p.Symbols[sym]
	if !ok {
		panic("softfloat intrinsics: missing symbol " + sym)
	}
	for i := start; i < uint32(len(p.Words)); i++ {
		op, _, _, _ := decodeFields(p.Words[i])
		if op == OpJAL {
			if t := jalTarget(p.Words[i], i); t == target {
				return i + 1
			}
		}
	}
	panic("softfloat intrinsics: no call site after " + sym)
}

func jalTarget(w uint32, pc uint32) uint32 {
	var d decoded
	predecodeWordInto(w, pc, &d)
	return uint32(d.imm)
}

func decodeFields(w uint32) (Opcode, uint8, uint8, uint8) {
	var d decoded
	predecodeWordInto(w, 0, &d)
	return Opcode(d.op), d.rd, d.rs1, d.rs2
}

func init() {
	pa := MustAssemble(SoftFloatLib)
	pc := MustAssemble(softFloatCompareLib)
	sfOff.arith = pa.Words
	sfOff.cmp = pc.Words
	sym := func(p *Program, s string) uint32 {
		v, ok := p.Symbols[s]
		if !ok {
			panic("softfloat intrinsics: missing symbol " + s)
		}
		return v
	}
	for i, m := range mirrors {
		if m.cmp {
			cmpIntrins[sym(pc, m.sym)] = uint8(i)
		} else {
			arithIntrins[sym(pa, m.sym)] = uint8(i)
		}
	}
	rp := sym(pa, "sf_roundpack")
	nrp := sym(pa, "sf_normroundpack")
	sfOff.retRPAdd = callAfter(pa, "as_rp", rp)
	sfOff.retRPAddEq = callAfter(pa, "as_eq_norm", rp)
	sfOff.retNRPSub = callAfter(pa, "ss_norm", nrp)
	sfOff.retRPMul = callAfter(pa, "mul_rp", rp)
	sfOff.retRPDiv = callAfter(pa, "div_rp", rp)
	sfOff.retRPSqrt = callAfter(pa, "sq_pack", rp)
}

// findBlob scans program memory for blob and returns its word offset,
// or -1 when the program does not contain it. Raw word equality is
// exact because the blobs are position-independent (matchBlob).
func findBlob(prog []uint32, blob []uint32) int32 {
	if len(blob) == 0 || len(blob) > len(prog) {
		return -1
	}
	w0 := blob[0]
	last := uint32(len(prog) - len(blob))
	for base := uint32(0); base <= last; base++ {
		if prog[base] == w0 && matchBlob(prog, base, blob) {
			return int32(base)
		}
	}
	return -1
}

// lowerIntrinsics rewrites every `jal r15` in dec whose target is a
// mirrored routine of a canonical SoftFloat blob in prog into an
// intrinsic record: op xopIntrin, the mirror's index in rs1 and the
// blob's word offset in imm3, with the JAL's target (imm) and link
// (imm2) kept for the plain call the record makes when its mirror
// declines. It runs before fusion, which fuses no record whose op lies
// outside the ISA, so no pair or quad swallows a lowered call.
func lowerIntrinsics(prog []uint32, dec []decoded) {
	arith := findBlob(prog, sfOff.arith)
	cmp := findBlob(prog, sfOff.cmp)
	if arith < 0 && cmp < 0 {
		return
	}
	for i := range dec {
		d := &dec[i]
		if d.op != uint8(OpJAL) || d.rd != 15 {
			continue
		}
		target := uint32(d.imm)
		for _, b := range [...]struct {
			base int32
			at   map[uint32]uint8
		}{{arith, arithIntrins}, {cmp, cmpIntrins}} {
			if b.base < 0 || target < uint32(b.base) {
				continue
			}
			if m, ok := b.at[target-uint32(b.base)]; ok {
				d.op, d.rs1, d.imm3 = xopIntrin, m, b.base
				break
			}
		}
	}
}

// RoutineCost reports what one call of the named SoftFloat routine
// ("f32_add", "f32_cmp_lt", ...) returns and costs on the core for
// operand bits a and b (b is ignored by unary routines): the result
// bits and the exact cycles and instructions from the call to its
// return. The figures come from running the routine's native mirror —
// the code the engines charge — on a scratch machine. ok is false for
// a routine without a mirror. Each query allocates a scratch CPU;
// nothing here is on an execution hot path.
func RoutineCost(routine string, a, b uint32) (res, cycles, instret uint32, ok bool) {
	for _, m := range mirrors {
		if m.sym != routine {
			continue
		}
		c := New()
		st := &cst{r: &c.R, data: (*[DataBytes]byte)(c.Data), stop: 1 << 62}
		c.R[1], c.R[2], c.R[14] = a, b, DataBytes/2
		cyc, ins, fired := m.fn(c, st, 0, 0, 4, 0)
		// The stop mark covers any routine cost and the scratch sp
		// satisfies every mirror's eligibility guard, so it fires.
		return c.R[1], uint32(cyc), uint32(ins), fired
	}
	return 0, 0, 0, false
}

// matchBlob reports whether prog holds blob verbatim at base. Raw word
// equality is exact: branch and JAL offsets are encoded pc-relative,
// so the blob's words are identical at any base.
func matchBlob(prog []uint32, base uint32, blob []uint32) bool {
	if uint32(len(prog)) < base || uint32(len(prog))-base < uint32(len(blob)) {
		return false
	}
	for i, w := range blob {
		if prog[base+uint32(i)] != w {
			return false
		}
	}
	return true
}

// mOut carries one mirrored routine's architectural effects: the final
// scratch registers, the optional sf_roundpack frame pushed one frame
// below the routine's own, and the exact dynamic cost.
type mOut struct {
	res                uint32 // final a0
	a1                 uint32
	a2                 uint32
	t0, t1, t2, t3, t4 uint32
	cyc, ins           uint32
	rpRA               uint32 // ra pushed by sf_roundpack (0 = no rp frame)
	rpS0, rpS1, rpS2   uint32 // s0/s1/s2 pushed by sf_roundpack
}

// mShrJam mirrors sf_shr_jam(a0=sig, sh=count). t0/t1 thread the
// caller's live values because some paths leave them untouched.
func mShrJam(a0, sh, t0, t1 uint32) (ra0, rt0, rt1, cyc, ins uint32) {
	if sh == 0 {
		return a0, t0, t1, 4, 2
	}
	if sh < 32 {
		hi := a0 >> sh
		lo := a0 << (32 - sh)
		if lo != 0 {
			return hi | 1, lo, hi | 1, 12, 11
		}
		return hi, 0, hi, 12, 10
	}
	if a0 != 0 {
		return 1, 0, t1, 8, 6
	}
	return 0, 0, t1, 8, 5
}

// mClz mirrors sf_clz's 16/8/4/2/1 cascade.
func mClz(a0, t0, t1 uint32) (ra0, rt0, rt1, cyc, ins uint32) {
	if a0 == 0 {
		return 32, t0, t1, 5, 3
	}
	// The emulated routine is a 16/8/4/2/1 shift cascade; step s is
	// taken exactly when bit log2(s) of the final count is set, so the
	// branch costs collapse to popcount arithmetic on the count itself:
	// each taken wide step (16/8/4/2) adds 1 cycle and 2 instret over
	// the untaken cost, and the final step adds 1 instret when bit 0 is
	// set. Base (all untaken): 22 cycles, 16 instret.
	n := uint32(bits.LeadingZeros32(a0))
	hb := uint32(bits.OnesCount32(n & 30))
	return n, n, 1 << 30, 22 + hb, 16 + 2*hb + n&1
}

// mPropNaN mirrors sf_propnan(a0=a, a1=b).
func mPropNaN(a, b uint32) (res, t0, t1, t2, t3, cyc, ins uint32) {
	aFrac := a & 0x7FFFFF
	aExp := (a >> 23) & 255
	if aExp == 255 && aFrac != 0 {
		return a | 0x400000, 0x400000, aFrac, aExp, 255, 13, 12
	}
	if aExp != 255 {
		cyc, ins = 8, 7
	} else {
		cyc, ins = 9, 8
	}
	bFrac := b & 0x7FFFFF
	bExp := (b >> 23) & 255
	cyc += 6
	ins += 6
	if bExp == 255 && bFrac != 0 {
		return b | 0x400000, 0x400000, bFrac, bExp, 255, cyc + 7, ins + 6
	}
	if bExp != 255 {
		cyc += 2
		ins++
	} else {
		cyc += 3
		ins += 2
	}
	return 0x7FC00000, 0x7FFFFF, bFrac, bExp, 255, cyc + 4, ins + 3
}

// mRoundPack mirrors sf_roundpack(a0=sign, a1=zExp, a2=zSig). t1in/t2in
// thread the caller's live values (the overflow path leaves t1 alone,
// only the round-to-even tie writes t2). The returned cost covers the
// routine's prologue through its ret; the caller accounts its own call
// and pushes the frame words (ra plus its live s0/s1/s2).
func mRoundPack(sign, zExp, zSig, t1in, t2in uint32) (res, a1o, t0, t1, t2, cyc, ins uint32) {
	cyc, ins = 9, 9 // prologue + arg moves + li 253
	a1o, t1, t2 = zExp, t1in, t2in
	s1, s2 := zExp, zSig
	overflow := false
	switch {
	case s1 < 253:
		cyc += 2
		ins++
	case int32(s1) > 253:
		cyc += 3
		ins += 2
		overflow = true
	case s1 == 253:
		t1 = s2 + 64
		if int32(t1) < 0 {
			cyc += 6 // three untaken branches + addi + taken blt
			ins += 5
			overflow = true
		} else {
			cyc += 7 // + untaken blt + j rp_round
			ins += 6
		}
	default: // negative zExp: denormalize through sf_shr_jam
		cyc += 4
		ins += 3
		var jc, ji uint32
		s2, _, t1, jc, ji = mShrJam(s2, -s1, 253, t1)
		a1o = -s1
		s1 = 0
		cyc += 6 + jc
		ins += 5 + ji
	}
	if overflow {
		res = sign<<31 | 0x7F800000
		return res, a1o, 0x7F800000, t1, t2, cyc + 4 + 11, ins + 4 + 6
	}
	roundBits := s2 & 127
	s2 = (s2 + 64) >> 7
	t0, t1 = roundBits, 64
	cyc += 4
	ins += 4
	if roundBits == 64 {
		t2 = ^uint32(1)
		s2 &= t2
		cyc += 3
		ins += 3
	} else {
		cyc += 2
		ins++
	}
	if s2 != 0 {
		cyc += 2
		ins++
	} else {
		s1 = 0
		cyc += 2
		ins += 2
	}
	t0 = sign << 31
	t1 = s1 << 23
	res = t0 + t1 + s2
	return res, a1o, t0, t1, t2, cyc + 6 + 11, ins + 5 + 6
}

// The mirrors thread their cycle/instret counters through registers —
// every helper takes the running (cyc, ins) pair and returns the
// advanced pair — and only write m.cyc/m.ins once, at the shared
// epilogue. Accumulating in the mOut fields instead would chain a
// load-modify-store through memory at every branch arm, which
// dominates the mirror's runtime.

// propNaN accounts one `jal sf_propnan` call site plus the routine
// body; control falls back to the caller's shared epilogue.
func (m *mOut) propNaN(a, b, cyc, ins uint32) (uint32, uint32) {
	res, t0, t1, t2, t3, pc, pi := mPropNaN(a, b)
	m.res, m.t0, m.t1, m.t2, m.t3 = res, t0, t1, t2, t3
	return cyc + 2 + pc, ins + 1 + pi
}

// roundPack accounts an sf_roundpack body entered with ra pushed as
// (lb+retOff)*4 and s0/s1/s2 live as ps0/ps1/ps2 (the frame words the
// routine pushes one frame below its caller's).
// rpFast applies the straight-lined common sf_roundpack case (normal
// exponent, no round-to-even tie, nonzero rounded significand) for a
// fixed 36-cycle / 27-instret body, leaving scratch identical to the
// full mirror. Reports false when the full mirror must run instead.
// Small enough for the compiler to inline at every round-pack tail.
func (m *mOut) rpFast(sign, zExp, zSig, t2in uint32) bool {
	if zExp >= 253 {
		return false
	}
	s2 := (zSig + 64) >> 7
	if zSig&127 == 64 || s2 == 0 {
		return false
	}
	t0 := sign << 31
	t1 := zExp << 23
	m.res, m.a1, m.t0, m.t1, m.t2 = t0+t1+s2, zExp, t0, t1, t2in
	return true
}

func (m *mOut) roundPack(sign, zExp, zSig, t1in, t2in, lb, retOff, ps0, ps1, ps2, cyc, ins uint32) (uint32, uint32) {
	m.rpRA = (lb + retOff) * 4
	m.rpS0, m.rpS1, m.rpS2 = ps0, ps1, ps2
	if m.rpFast(sign, zExp, zSig, t2in) {
		return cyc + 36, ins + 27
	}
	res, a1o, t0, t1, t2, rc, ri := mRoundPack(sign, zExp, zSig, t1in, t2in)
	m.res, m.a1, m.t0, m.t1, m.t2 = res, a1o, t0, t1, t2
	return cyc + rc, ins + ri
}

// normRoundPack accounts an sf_normroundpack body (clz + renormalize +
// tail jump into sf_roundpack). rpRA is the return address the chain
// pushes: sf_normroundpack restores its caller's ra before the tail
// jump, so sf_roundpack pushes the *original* call site's link.
func (m *mOut) normRoundPack(sign, zExpM1, frac, rpRA, ps0, ps1, ps2, cyc, ins uint32) (uint32, uint32) {
	cnt, _, _, cc, ci := mClz(frac, 0, 0)
	sh := cnt - 1
	zExp := zExpM1 - sh
	zSig := frac << (sh & 31)
	m.a2 = zSig
	m.rpRA = rpRA
	m.rpS0, m.rpS1, m.rpS2 = ps0, ps1, ps2
	if m.rpFast(sign, zExp, zSig, sh) {
		return cyc + 22 + cc + 36, ins + 17 + ci + 27
	}
	res, a1o, t0, t1, t2, rc, ri := mRoundPack(sign, zExp, zSig, 1<<30, sh)
	m.res, m.a1 = res, a1o
	m.t0, m.t1, m.t2 = t0, t1, t2
	return cyc + 22 + cc + rc, ins + 17 + ci + ri
}

// fin16 commits the final counters, accounting the shared 16-byte-
// frame return path (four lw + sp restore + ret) used by
// f32_addsigs/f32_subsigs/f32_mul/f32_div on the way out.
func (m *mOut) fin16(cyc, ins uint32) {
	m.cyc, m.ins = cyc+11, ins+6
}

// mAddSigs mirrors f32_addsigs (same-signed magnitude add). sign is
// the entry a2, t1in the entry t1 (the b operand's sign bit), s2c the
// caller's live s2 (pushed if the equal-exponent path round-packs).
func mAddSigs(m *mOut, a, b, sign, t1in, s2c, lb, cyc, ins uint32) {
	s0 := (a & 0x7FFFFF) << 6
	s1 := (b & 0x7FFFFF) << 6
	t2 := (a >> 23) & 255
	t3 := (b >> 23) & 255
	t4 := t2 - t3
	m.a1, m.a2 = b, sign
	m.t2, m.t3, m.t4 = t2, t3, t4
	cyc += 16
	ins += 16
	switch {
	case t4 == 0: // as_equal
		cyc += 3
		ins += 2
		if t2 == 255 {
			cyc++
			ins++
			t1 := s0 | s1
			m.t0, m.t1 = 255, t1
			if t1 != 0 {
				cyc, ins = m.propNaN(a, b, cyc+3, ins+2)
			} else { // Inf + Inf
				cyc += 4
				ins += 3
				m.res = a
			}
			m.fin16(cyc, ins)
			return
		}
		cyc += 2
		ins++
		if t2 == 0 { // subnormal + subnormal: exact, no rounding
			v := (s0 + s1) >> 6
			m.res = sign<<31 + v
			m.t0, m.t1 = v, t1in
			m.fin16(cyc+7, ins+6)
			return
		}
		// as_eq_norm: equal exponents, result shifts right by one
		zSig := s0 + s1 + 0x40000000
		m.a2 = zSig
		cyc, ins = m.roundPack(sign, t2, zSig, 1<<30, t2, lb, sfOff.retRPAddEq, s0, s1, s2c, cyc+2+7+2, ins+1+7+1)
		m.fin16(cyc+2, ins+1)
		return
	case int32(t4) > 0: // as_abig: a has the larger exponent
		cyc += 4
		ins += 3
		if t2 == 255 {
			cyc++
			ins++
			m.t0, m.t1 = 255, t1in
			if s0 != 0 {
				cyc, ins = m.propNaN(a, b, cyc+2, ins+1)
			} else {
				cyc += 3
				ins += 2
				m.res = a
			}
			m.fin16(cyc, ins)
			return
		}
		cyc += 2
		ins++
		if t3 == 0 {
			t4--
			m.t4 = t4
			cyc += 4
			ins += 3
		} else {
			s1 |= 0x20000000
			cyc += 5
			ins += 4
		}
		var jc, ji uint32
		s1, _, t1in, jc, ji = mShrJam(s1, t4, 255, t1in)
		m.a1 = t4
		cyc += 3 + 2 + jc + 1 + 6
		ins += 3 + 1 + ji + 1 + 6
		s0 |= 0x20000000
		t1 := s0 + s1
		t0 := t1 << 1
		e := t2 - 1
		if int32(t0) >= 0 {
			cyc += 2
			ins++
		} else {
			t0 = t1
			e++
			cyc += 3
			ins += 3
		}
		m.a2 = t0
		m.rpRA = (lb + sfOff.retRPAdd) * 4
		m.rpS0, m.rpS1, m.rpS2 = s0, s1, e
		if m.rpFast(sign, e, t0, t2) {
			m.fin16(cyc+5+36+2, ins+4+27+1)
			return
		}
		res, a1o, rt0, rt1, rt2, rc, ri := mRoundPack(sign, e, t0, t1, t2)
		m.res, m.a1, m.t0, m.t1, m.t2 = res, a1o, rt0, rt1, rt2
		m.fin16(cyc+5+rc+2, ins+4+ri+1)
		return
	default: // b has the larger exponent
		cyc += 3
		ins += 3
		if t3 == 255 {
			cyc++
			ins++
			m.t0, m.t1 = 255, t1in
			if s1 != 0 {
				cyc, ins = m.propNaN(a, b, cyc+2, ins+1)
			} else {
				m.res = sign<<31 | 0x7F800000
				m.t0 = 0x7F800000
				cyc += 7
				ins += 6
			}
			m.fin16(cyc, ins)
			return
		}
		cyc += 2
		ins++
		if t2 == 0 {
			t4++
			m.t4 = t4
			cyc += 4
			ins += 3
		} else {
			s0 |= 0x20000000
			cyc += 5
			ins += 4
		}
		var jc, ji uint32
		s0, _, t1in, jc, ji = mShrJam(s0, -t4, 255, t1in)
		m.a1 = -t4
		cyc += 3 + 2 + jc + 1 + 2 + 6
		ins += 3 + 1 + ji + 1 + 1 + 6
		s0 |= 0x20000000
		t1 := s0 + s1
		t0 := t1 << 1
		e := t3 - 1
		if int32(t0) >= 0 {
			cyc += 2
			ins++
		} else {
			t0 = t1
			e++
			cyc += 3
			ins += 3
		}
		m.a2 = t0
		m.rpRA = (lb + sfOff.retRPAdd) * 4
		m.rpS0, m.rpS1, m.rpS2 = s0, s1, e
		if m.rpFast(sign, e, t0, t2) {
			m.fin16(cyc+5+36+2, ins+4+27+1)
			return
		}
		res, a1o, rt0, rt1, rt2, rc, ri := mRoundPack(sign, e, t0, t1, t2)
		m.res, m.a1, m.t0, m.t1, m.t2 = res, a1o, rt0, rt1, rt2
		m.fin16(cyc+5+rc+2, ins+4+ri+1)
		return
	}
}

// mSubSigs mirrors f32_subsigs (opposite-signed magnitude subtract).
func mSubSigs(m *mOut, a, b, sign, t1in, s2c, lb, cyc, ins uint32) {
	s0 := (a & 0x7FFFFF) << 7
	s1 := (b & 0x7FFFFF) << 7
	t2 := (a >> 23) & 255
	t3 := (b >> 23) & 255
	t4 := t2 - t3
	m.a1, m.a2 = b, sign
	m.t2, m.t3, m.t4 = t2, t3, t4
	cyc += 16
	ins += 16
	nrpRA := (lb + sfOff.retNRPSub) * 4
	switch {
	case t4 == 0: // ss_equal
		cyc += 3
		ins += 2
		if t2 == 255 {
			cyc++
			ins++
			t1 := s0 | s1
			m.t0, m.t1 = 255, t1
			if t1 != 0 {
				cyc, ins = m.propNaN(a, b, cyc+3, ins+2)
			} else { // Inf - Inf
				m.res = 0x7FC00000
				cyc += 6
				ins += 5
			}
			m.fin16(cyc, ins)
			return
		}
		cyc += 2
		ins++
		t2eff := t2
		if t2 == 0 {
			t2eff = 1
			m.t2 = 1
			cyc += 2
			ins += 2
		} else {
			cyc += 2
			ins++
		}
		switch {
		case s1 < s0: // ss_eq_abig
			m.t0 = s0 - s1
			cyc, ins = m.normRoundPack(sign, t2eff-1, s0-s1, nrpRA, s0, s1, t2eff, cyc+2+4+5, ins+1+3+4)
			cyc += 2
			ins++
		case s0 < s1: // ss_eq_bbig
			m.t0 = s1 - s0
			m.a2 = sign ^ 1
			cyc, ins = m.normRoundPack(sign^1, t2eff-1, s1-s0, nrpRA, s0, s1, t2eff, cyc+3+3+5, ins+2+3+4)
			cyc += 2
			ins++
		default: // exact cancellation: +0
			m.res = 0
			m.t0, m.t1 = 255, t1in
			cyc += 5
			ins += 4
		}
		m.fin16(cyc, ins)
		return
	case int32(t4) > 0: // ss_abig
		cyc += 4
		ins += 3
		if t2 == 255 {
			cyc++
			ins++
			m.t0, m.t1 = 255, t1in
			if s0 != 0 {
				cyc, ins = m.propNaN(a, b, cyc+2, ins+1)
			} else {
				cyc += 3
				ins += 2
				m.res = a
			}
			m.fin16(cyc, ins)
			return
		}
		cyc += 2
		ins++
		if t3 == 0 {
			t4--
			m.t4 = t4
			cyc += 4
			ins += 3
		} else {
			s1 |= 0x40000000
			cyc += 5
			ins += 4
		}
		var jc, ji uint32
		s1, _, t1in, jc, ji = mShrJam(s1, t4, 255, t1in)
		m.a1 = t4
		s0 |= 0x40000000
		m.t0 = s0 - s1
		cyc, ins = m.normRoundPack(sign, t2-1, s0-s1, nrpRA, s0, s1, t2,
			cyc+3+2+jc+1+2+1+1+2+5, ins+3+1+ji+1+2+1+1+1+4)
		m.fin16(cyc+2, ins+1)
		return
	default: // ss b bigger
		cyc += 3
		ins += 3
		if t3 == 255 {
			cyc++
			ins++
			m.t0, m.t1 = 255, t1in
			if s1 != 0 {
				cyc, ins = m.propNaN(a, b, cyc+2, ins+1)
			} else {
				m.res = (sign^1)<<31 | 0x7F800000
				m.a2 = sign ^ 1
				m.t0 = 0x7F800000
				cyc += 8
				ins += 7
			}
			m.fin16(cyc, ins)
			return
		}
		cyc += 2
		ins++
		if t2 == 0 {
			t4++
			m.t4 = t4
			cyc += 4
			ins += 3
		} else {
			s0 |= 0x40000000
			cyc += 5
			ins += 4
		}
		var jc, ji uint32
		s0, _, t1in, jc, ji = mShrJam(s0, -t4, 255, t1in)
		m.a1 = -t4
		s1 |= 0x40000000
		m.t0 = s1 - s0
		m.a2 = sign ^ 1
		cyc, ins = m.normRoundPack(sign^1, t3-1, s1-s0, nrpRA, s0, s1, t3,
			cyc+3+2+jc+1+2+1+1+1+2+5, ins+3+1+ji+1+2+1+1+1+1+4)
		m.fin16(cyc+2, ins+1)
		return
	}
}

// tryIntrinF32Add mirrors a `call f32_add` executed at link address ra
// with the arith library blob at word offset lb.
func tryIntrinF32Add(c *CPU, st *cst, cyc, ins uint64, ra, lb uint32) (uint64, uint64, bool) {
	r := st.r
	sp := r[14]
	if sp&3 != 0 || sp < 64 || sp > DataBytes {
		return 0, 0, false
	}
	a, b := r[1], r[2]
	m := &st.sf
	m.rpRA = 0
	sa, sb := a>>31, b>>31
	if sa == sb {
		mAddSigs(m, a, b, sa, sb, r[12], lb, 8, 6)
	} else {
		mSubSigs(m, a, b, sa, sb, r[12], lb, 7, 5)
	}
	return commit16(c, st, m, cyc, ins, ra, sp)
}

// tryIntrinF32Sub mirrors a `call f32_sub`.
func tryIntrinF32Sub(c *CPU, st *cst, cyc, ins uint64, ra, lb uint32) (uint64, uint64, bool) {
	r := st.r
	sp := r[14]
	if sp&3 != 0 || sp < 64 || sp > DataBytes {
		return 0, 0, false
	}
	a, b := r[1], r[2]
	m := &st.sf
	m.rpRA = 0
	sa, sb := a>>31, b>>31
	if sa != sb {
		mAddSigs(m, a, b, sa, sb, r[12], lb, 7, 5)
	} else {
		mSubSigs(m, a, b, sa, sb, r[12], lb, 8, 6)
	}
	return commit16(c, st, m, cyc, ins, ra, sp)
}

// commit16 applies a mirrored 16-byte-frame routine's effects after
// the budget gate: the routine's own frame, the optional round-pack
// frame below it, the scratch registers, and the restored link.
func commit16(c *CPU, st *cst, m *mOut, cyc, ins uint64, ra, sp uint32) (uint64, uint64, bool) {
	if st.stop-cyc <= uint64(m.cyc) {
		return 0, 0, false
	}
	r := st.r
	// One bounds check for the whole frame window (sp is in [64,
	// DataBytes] and 4-aligned, so sp-32 cannot wrap); the array
	// pointer makes every store below a constant-offset unchecked one.
	fr := (*[32]byte)(st.data[sp-32:])
	binary.LittleEndian.PutUint32(fr[16:20], ra)
	binary.LittleEndian.PutUint32(fr[20:24], r[10])
	binary.LittleEndian.PutUint32(fr[24:28], r[11])
	binary.LittleEndian.PutUint32(fr[28:32], r[12])
	if m.rpRA != 0 {
		binary.LittleEndian.PutUint32(fr[0:4], m.rpRA)
		binary.LittleEndian.PutUint32(fr[4:8], m.rpS0)
		binary.LittleEndian.PutUint32(fr[8:12], m.rpS1)
		binary.LittleEndian.PutUint32(fr[12:16], m.rpS2)
	}
	r[1], r[2], r[3] = m.res, m.a1, m.a2
	r[5], r[6], r[7], r[8], r[9] = m.t0, m.t1, m.t2, m.t3, m.t4
	r[15] = ra
	if c.cstats != nil {
		c.cstats.IntrinsicCalls++
		c.cstats.IntrinsicInstret += uint64(m.ins)
	}
	return cyc + uint64(m.cyc), ins + uint64(m.ins), true
}
