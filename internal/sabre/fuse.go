package sabre

// Superinstruction fusion: the programs the repo ships repeat a few
// adjacent-instruction idioms — `li` big constants become lui+ori,
// field extraction and rotates are shift pairs, loop control is an
// add-immediate followed by a conditional branch, 64-bit products are a
// mul/mulhu pair over the same operands, and call prologues and
// epilogues are runs of stack loads and stores. Each pattern below
// collapses one such pair into a single fused record with one dispatch,
// executed by a dedicated handler in runfast.go.
//
// A pattern is here only because deleting it would raise the number of
// records the fast engine dispatches on a program the repo runs: the
// golden programs (TestSabreProgramRecords pins their counts), the
// SoftFloat batch harness, the example and GUI programs, and
// perfbench's runtime programs. A pattern that fires but whose
// neighbours would cover the same words in as many records does not
// earn a place. None serves the SoftFloat routine bodies alone: calls
// into the canonical library run as native mirrors (intrinsics.go), so
// those bodies reach the interpreter only when a mirror declines.
//
// Fusion preserves the architectural contract exactly:
//
//   - Handlers execute the two components in program order against
//     committed register state, so intra-pair data dependencies behave
//     as in the reference interpreter. Patterns that precompute a
//     combined result (xopLUIConst, the mul/mulhu pair) only fuse when
//     their register constraints make the precomputation equivalent.
//   - A fused record only changes the meaning of its own slot — "the
//     two instructions starting here" — so records may overlap: slot i
//     can fuse (A,B) while slot i+1 fuses (B,C). Control entering
//     either slot sees exact sequential semantics, which means branch
//     targets that land mid-pair still get their own fused (or plain)
//     record rather than falling back to single dispatch.
//   - Cycle costs and retired-instruction counts are the sums of the
//     components', and the run loop falls back to single-stepping when
//     the remaining cycle budget could expire between the components.

// Superinstruction opcodes, continuing the Opcode space above
// numOpcodes. They exist only inside decoded records — never in
// program memory.
const (
	xopLUIConst = uint8(numOpcodes) + iota // lui rd + (ori rd,rd,lo | add rd,rd,r0): rd = imm
	xopLWLW                                // load pair
	xopSWSW                                // store pair
	xopADDISW                              // stack adjust + store (call prologues)
	xopSLLISLLI                            // shift pair
	xopSRLISLLI                            // carry extract + shift (division loops)
	xopSLLISRLI                            // zero-extend / bit-field / rotate
	xopSLLISRAI                            // sign-extend
	xopSLLIOR                              // shift + merge
	xopADDIADDI                            // pointer/counter bump pair
	xopMULMULHU                            // mul + mulhu, same operands: one 64-bit product
	xopADDIBEQ                             // ALU + compare-branch fusions
	xopADDIBNE
	xopANDIBNE
	xopSLTIUBNE
	xopADDIJAL // loop-tail increment + unconditional jump
	// xopIllegal marks a program word whose raw opcode is outside the
	// ISA. The 6-bit op field ranges over 0..63, which overlaps the
	// xop* codes above, so predecode must not store the raw value; the
	// original opcode is kept in imm for the fault message.
	xopIllegal
	// Generic sequential pairs, registered in pairOps below. These need
	// no operand constraints: their handlers execute the two components
	// strictly in order against committed register state.
	xopADDISRLI // ALU + ALU
	xopADDISUB
	xopADDADD
	xopSUBADDI
	xopADDILUI
	xopORIADDI
	xopADDOR
	xopORSLLI
	xopORADD
	xopSLLIADDI
	xopADDSLLI
	xopADDADDI
	xopORSUB
	xopSWLUI // store + ALU
	xopSWADDI
	xopADDILW // ALU + load / load + ALU
	xopLWADDI
	xopADDLW
	xopSWLW     // store + load
	xopLWJAL    // load + call
	xopADDIJALR // stack adjust + return
	xopSLLIBNE  // shift + compare-branch
	xopADDIBGE  // ALU + compare-branch
	xopBLTUSUB  // branch + ALU or load on the fall-through path
	xopBLTADDI
	xopBEQLW
	// Quad superinstructions, produced by the second fusion pass
	// (fuse2): adjacent pairs of already-fused records, collapsed again
	// so one dispatch retires four instructions. Component fields one to
	// four live in rd/rs1/rs2/imm, rd2/rs3/rs4/imm2, rd3/rs5/rs6/imm3
	// and rd4/rs7/rs8/imm4 respectively.
	xqSRLISLLISLLIBNE // division/normalise loop body
	xqADDISWSWSW      // call-prologue stack adjust + spill run
	xqLWLWLWLW        // load run (operand unpacking)
	xqADDIADDIADDIJAL // counter bumps + loop-tail jump
	xqBLTUSUBORIADDI  // restoring-division quotient step
	xqSWSWSWLUI       // spill run + constant load
	// xopIntrin is a `jal r15` into a routine of a canonical SoftFloat
	// blob, lowered at predecode to the routine's native mirror
	// (lowerIntrinsics in intrinsics.go). It is not a fusion: it stays
	// one instruction, and the record makes the plain call when its
	// mirror declines.
	xopIntrin
)

// pairOps maps (op1, op2) to the fused opcode for the generic
// sequential patterns — the ones with no operand constraints. It is a
// flat array rather than a map because fusePair probes it for nearly
// every adjacent word pair: predecode runs the probe ~2k times per
// program load, and a map lookup apiece made LoadProgram measurably
// slow for callers that build a fresh CPU per run.
var pairOps [int(numOpcodes) * int(numOpcodes)]uint8

func pairKey(a, b Opcode) int { return int(a)*int(numOpcodes) + int(b) }

func init() {
	for _, e := range []struct {
		a, b Opcode
		x    uint8
	}{
		// Patterns whose handlers need no operand constraints, all in
		// the one table fusePairInto probes; only LUI const-folding and
		// the shared-product mul pair need checks beyond the opcodes.
		{OpLW, OpLW, xopLWLW},
		{OpSW, OpSW, xopSWSW},
		{OpADDI, OpSW, xopADDISW},
		{OpSLLI, OpSLLI, xopSLLISLLI},
		{OpSRLI, OpSLLI, xopSRLISLLI},
		{OpSLLI, OpSRLI, xopSLLISRLI},
		{OpSLLI, OpSRAI, xopSLLISRAI},
		{OpSLLI, OpOR, xopSLLIOR},
		{OpADDI, OpADDI, xopADDIADDI},
		{OpADDI, OpBEQ, xopADDIBEQ},
		{OpADDI, OpBNE, xopADDIBNE},
		{OpANDI, OpBNE, xopANDIBNE},
		{OpSLTIU, OpBNE, xopSLTIUBNE},
		{OpADDI, OpJAL, xopADDIJAL},
		{OpADDI, OpSRLI, xopADDISRLI},
		{OpADDI, OpSUB, xopADDISUB},
		{OpADD, OpADD, xopADDADD},
		{OpSUB, OpADDI, xopSUBADDI},
		{OpADDI, OpLUI, xopADDILUI},
		{OpORI, OpADDI, xopORIADDI},
		{OpADD, OpOR, xopADDOR},
		{OpOR, OpSLLI, xopORSLLI},
		{OpOR, OpADD, xopORADD},
		{OpSLLI, OpADDI, xopSLLIADDI},
		{OpADD, OpSLLI, xopADDSLLI},
		{OpADD, OpADDI, xopADDADDI},
		{OpOR, OpSUB, xopORSUB},
		{OpSW, OpLUI, xopSWLUI},
		{OpSW, OpADDI, xopSWADDI},
		{OpADDI, OpLW, xopADDILW},
		{OpLW, OpADDI, xopLWADDI},
		{OpADD, OpLW, xopADDLW},
		{OpSW, OpLW, xopSWLW},
		{OpLW, OpJAL, xopLWJAL},
		{OpADDI, OpJALR, xopADDIJALR},
		{OpSLLI, OpBNE, xopSLLIBNE},
		{OpADDI, OpBGE, xopADDIBGE},
		{OpBLTU, OpSUB, xopBLTUSUB},
		{OpBLT, OpADDI, xopBLTADDI},
		{OpBEQ, OpLW, xopBEQLW},
	} {
		pairOps[pairKey(e.a, e.b)] = e.x
	}
}

// fusedCostMax is the largest cycle cost a fused record can retire in
// one dispatch (the mul/mulhu pair: 4+4). The run loop leaves at least
// this much budget headroom before executing fused records so a cycle
// limit can never expire unnoticed between the two components.
const fusedCostMax = 8

// fuse rewrites recognised instruction pairs in the decoded array into
// superinstruction records. Every adjacent pair is considered — records
// may overlap, since each slot independently describes the instructions
// starting at that address — so execution entering at any pc (fall
// through or branch target) dispatches a fused record whenever its next
// two instructions match a pattern. The scan writes only slot i at step
// i, so each match is computed from the original plain records.
func fuse(dec []decoded) {
	for i := 0; i+1 < len(dec); i++ {
		fusePairInto(&dec[i], &dec[i+1])
	}
}

// fuse2 is the second fusion pass: it collapses adjacent pairs of
// pair-fused records into quad superinstructions. Like fuse, it writes
// only the slot where the sequence starts and leaves the following
// slots untouched, so a control transfer into the middle of a quad
// still lands on a record describing execution from exactly that word.
// The scan is ascending and reads slot i+2 before it could ever be
// rewritten, so matches are always against the first-pass records.
func fuse2(dec []decoded) {
	for i := 0; i+3 < len(dec); i++ {
		var x uint8
		switch uint16(dec[i].op)<<8 | uint16(dec[i+2].op) {
		case uint16(xopSRLISLLI)<<8 | uint16(xopSLLIBNE):
			x = xqSRLISLLISLLIBNE
		case uint16(xopADDISW)<<8 | uint16(xopSWSW):
			x = xqADDISWSWSW
		case uint16(xopLWLW)<<8 | uint16(xopLWLW):
			x = xqLWLWLWLW
		case uint16(xopADDIADDI)<<8 | uint16(xopADDIJAL):
			x = xqADDIADDIADDIJAL
		case uint16(xopBLTUSUB)<<8 | uint16(xopORIADDI):
			x = xqBLTUSUBORIADDI
		case uint16(xopSWSW)<<8 | uint16(xopSWLUI):
			x = xqSWSWSWLUI
		default:
			continue
		}
		b := &dec[i+2]
		f := dec[i]
		f.op = x
		f.rd3, f.rs5, f.rs6, f.imm3 = b.rd, b.rs1, b.rs2, b.imm
		f.rd4, f.rs7, f.rs8, f.imm4 = b.rd2, b.rs3, b.rs4, b.imm2
		dec[i] = f
	}
}

// fusePairInto rewrites d1 in place into a fused record over (d1, d2)
// when the pair matches a pattern; otherwise d1 is left untouched. The
// common fused layout keeps the first component in rd/rs1/rs2/imm and
// copies the second into rd2/rs3/rs4/imm2. Unconstrained patterns come
// from the pairOps table; the cases below carry operand constraints the
// table can't express.
func fusePairInto(d1, d2 *decoded) {
	op1, op2 := Opcode(d1.op), Opcode(d2.op)
	if op1 >= numOpcodes || op2 >= numOpcodes {
		return
	}

	switch op1 {
	case OpLUI:
		// li expansion: the full 32-bit constant is known at predecode
		// time when the second half targets the same register.
		if op2 == OpORI && d2.rd == d1.rd && d2.rs1 == d1.rd {
			d1.op = xopLUIConst
			d1.rd2, d1.rs3, d1.rs4, d1.imm2 = d2.rd, d2.rs1, d2.rs2, d2.imm
			d1.imm = int32(uint32(d1.imm) | uint32(d2.imm))
			return
		}
		if op2 == OpADD && d2.rd == d1.rd && d2.rs1 == d1.rd && d2.rs2 == 0 {
			d1.op = xopLUIConst
			d1.rd2, d1.rs3, d1.rs4, d1.imm2 = d2.rd, d2.rs1, d2.rs2, d2.imm
			return
		}
	case OpMUL:
		// A mul/mulhu pair over the same operand pair is one 64-bit
		// product. Requires the low word not to feed the mulhu's sources
		// (the shared product would go stale), and the operand pairs to
		// match up to commutativity.
		sameOps := (d2.rs1 == d1.rs1 && d2.rs2 == d1.rs2) ||
			(d2.rs1 == d1.rs2 && d2.rs2 == d1.rs1)
		noHazard := d1.rd == 0 || (d1.rd != d2.rs1 && d1.rd != d2.rs2)
		if op2 == OpMULHU && sameOps && noHazard {
			d1.op = xopMULMULHU
			d1.rd2, d1.rs3, d1.rs4, d1.imm2 = d2.rd, d2.rs1, d2.rs2, d2.imm
			return
		}
	}
	if x := pairOps[pairKey(op1, op2)]; x != 0 {
		d1.op = x
		d1.rd2, d1.rs3, d1.rs4, d1.imm2 = d2.rd, d2.rs1, d2.rs2, d2.imm
	}
}
