package sabre

// This file implements the predecode pass of the fast execution engine
// (see runfast.go). The reference interpreter re-extracts every
// register field and immediate from the raw instruction word on every
// cycle; the fast engine instead translates program memory once into a
// dense []decoded array — one record per program word, all fields
// unpacked, branch and jump targets resolved to absolute word indices,
// and immediates pre-shifted where the ISA applies a fixed shift (LUI's
// <<16, the shift-amount &31 masks). Calls into the SoftFloat library
// then become intrinsic records (intrinsics.go), and a fusion pass
// (fuse.go) rewrites hot two-instruction idioms into single
// superinstruction records.
//
// The decoded array is cached on the CPU and rebuilt lazily after
// LoadProgram invalidates it; the backing slice is reused so reloading
// a program in a steady-state loop stays allocation-free.

// decoded is one predecoded program word. For plain records the first
// three register fields and imm mirror the instruction's own fields;
// fused records additionally carry the second component's fields in
// rd2/rs3/rs4 and imm2, and quad records (second fusion pass, fuse2)
// the third and fourth components' fields in rd3/rs5/rs6/imm3 and
// rd4/rs7/rs8/imm4. The exact meaning per op:
//
//	R-type        rd, rs1, rs2
//	I-type ALU    rd, rs1, imm (sign-extended; shift amounts pre-&31)
//	LW/LB/LBU     rd, rs1, imm
//	SW/SB         rd (value), rs1 (base), imm
//	branches      rs1, rs2, imm = absolute target word index
//	LUI           rd, imm = imm16 << 16
//	JAL           rd, imm = absolute target, imm2 = link value (pc+1)*4
//	xopIntrin     a JAL's fields, plus rs1 = mirror index, imm3 = blob base
//	JALR          rd, rs1, imm, imm2 = link value (pc+1)*4
//
// The struct is 32 bytes so the 2048-word program store predecodes into
// a 64 KiB array; the hot loops of any one program touch a small slice
// of it, so the working set stays cache-resident.
type decoded struct {
	op  uint8 // Opcode, or one of the xop*/xq* superinstruction codes
	rd  uint8
	rs1 uint8
	rs2 uint8
	// Second-component fields, used by fused records only.
	rd2 uint8
	rs3 uint8
	rs4 uint8
	_   uint8
	// Third- and fourth-component fields, used by quad records only.
	rd3  uint8
	rs5  uint8
	rs6  uint8
	rd4  uint8
	rs7  uint8
	rs8  uint8
	_    [2]uint8
	imm  int32
	imm2 int32
	imm3 int32
	imm4 int32
}

// predecodeWordInto unpacks one program word at the given word index
// directly into a decoded slot, avoiding the 32-byte copy a return by
// value would cost per word (predecode runs over the full 2048-word
// store on every program load).
func predecodeWordInto(w uint32, pc uint32, d *decoded) {
	op := decOp(w)
	if op >= numOpcodes {
		// Illegal: the run loop faults if this record is ever reached.
		// The raw opcode would alias the xop* codes, so it is carried
		// in imm under a dedicated marker instead.
		*d = decoded{op: xopIllegal, imm: int32(op)}
		return
	}
	*d = decoded{op: uint8(op)}
	switch opTable[op].kind {
	case 'R':
		d.rd = uint8(decRD(w))
		d.rs1 = uint8(decRS1(w))
		d.rs2 = uint8(decRS2(w))
	case 'I':
		d.rd = uint8(decRD(w))
		d.rs1 = uint8(decRS1(w))
		d.imm = decImm18(w)
		switch op {
		case OpSLLI, OpSRLI, OpSRAI:
			d.imm = int32(uint32(d.imm) & 31)
		}
	case 'M':
		d.rd = uint8(decRD(w))
		d.rs1 = uint8(decRS1(w))
		d.imm = decImm18(w)
	case 'B':
		d.rs1 = uint8(w >> 22 & 0xF)
		d.rs2 = uint8(w >> 18 & 0xF)
		d.imm = int32(pc) + decImm18(w) // absolute target word index
	case 'U':
		d.rd = uint8(decRD(w))
		d.imm = int32(decImm16(w) << 16)
	case 'J':
		d.rd = uint8(decRD(w))
		d.imm = int32(pc) + decImm22(w) // absolute target word index
		d.imm2 = int32((pc + 1) * 4)    // link value
	case 'r':
		d.rd = uint8(decRD(w))
		d.rs1 = uint8(decRS1(w))
		d.imm = decImm18(w)
		d.imm2 = int32((pc + 1) * 4) // link value
	}
}

// predecode (re)builds the decoded program array from program memory:
// it lowers calls into the canonical SoftFloat blobs to intrinsic
// records, runs the superinstruction fusion passes, and matches the
// program against the generated kernels. The backing array is
// allocated once per CPU and reused on reload.
func (c *CPU) predecode() {
	if cap(c.dec) < ProgWords {
		c.dec = make([]decoded, ProgWords)
	}
	c.dec = c.dec[:ProgWords]
	for i := range c.dec {
		predecodeWordInto(c.Prog[i], uint32(i), &c.dec[i])
	}
	lowerIntrinsics(c.Prog, c.dec)
	c.kernel = matchKernel(c.Prog)
	fuse(c.dec)
	fuse2(c.dec)
	c.computeMaxRun()
	c.decValid = true
}

// recCost classifies a decoded record for the straight-line cost
// analysis: its fixed cycle cost, how far it advances the pc, and
// whether it is a checkpoint — a record whose handler can redirect or
// terminate control flow, and which therefore carries the run loop's
// cycle-budget check.
func recCost(op uint8) (cost, adv uint32, checkpoint bool) {
	switch op {
	case uint8(OpBEQ), uint8(OpBNE), uint8(OpBLT), uint8(OpBGE),
		uint8(OpBLTU), uint8(OpBGEU), uint8(OpJAL), uint8(OpJALR),
		uint8(OpHALT):
		return 0, 0, true
	case uint8(OpLW), uint8(OpLB), uint8(OpLBU):
		return 2, 1, false
	case uint8(OpMUL), uint8(OpMULHU):
		return 4, 1, false
	case xopLUIConst, xopSWSW, xopADDISW, xopSLLISLLI, xopSRLISLLI,
		xopSLLISRLI, xopSLLISRAI, xopSLLIOR, xopADDIADDI, xopADDISRLI,
		xopADDISUB, xopADDADD, xopSUBADDI, xopADDILUI, xopORIADDI, xopADDOR,
		xopORSLLI, xopORADD, xopSLLIADDI, xopADDSLLI, xopADDADDI, xopORSUB,
		xopSWLUI, xopSWADDI:
		return 2, 2, false
	case xopADDILW, xopLWADDI, xopADDLW, xopSWLW:
		return 3, 2, false
	case xopLWLW:
		return 4, 2, false
	case xopMULMULHU:
		return 8, 2, false
	case xqADDISWSWSW, xqSWSWSWLUI:
		return 4, 4, false
	case xqLWLWLWLW:
		return 8, 4, false
	}
	if op < uint8(numOpcodes) {
		// Remaining plain records: single-cycle ALU ops and stores.
		return 1, 1, false
	}
	// Remaining superinstructions (pair and quad) have a branch, jal or
	// jalr component, and xopIllegal faults: all checkpoints.
	return 0, 0, true
}

// computeMaxRun records the largest cycle cost of any straight-line
// (checkpoint-free) path through the fused program. The run loop
// subtracts it from the budget threshold so that whenever a checkpoint's
// budget check passes, the whole run to the next checkpoint provably
// fits in the remaining budget — which is what lets straight-line
// records skip the per-dispatch check entirely.
func (c *CPU) computeMaxRun() {
	n := len(c.dec)
	if cap(c.runCost) < n+4 {
		c.runCost = make([]uint32, n+4)
	}
	run := c.runCost[:n+4]
	run[n], run[n+1], run[n+2], run[n+3] = 0, 0, 0, 0
	var maxRun uint32
	for i := n - 1; i >= 0; i-- {
		cost, adv, checkpoint := recCost(c.dec[i].op)
		if checkpoint {
			run[i] = 0
			continue
		}
		run[i] = cost + run[i+int(adv)]
		if run[i] > maxRun {
			maxRun = run[i]
		}
	}
	c.maxRun = uint64(maxRun)
}
