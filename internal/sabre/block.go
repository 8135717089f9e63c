package sabre

// This file is the basic-block layer of the compiled execution engine
// (runcompiled.go): a scanner that partitions program memory into
// straight-line blocks, each with its static and worst-case cycle cost,
// which the block translator (compile.go) hands to the runtime tier.
//
// Blocks are scanned over *plain* predecoded records (predecodeWordInto
// on the raw program words), never over the fused superinstruction
// array the fast engine runs: a fused record describes execution
// starting at its own slot only, so a branch into the middle of a fused
// pair must begin a fresh block — scanning plain records from any entry
// pc gives exactly that split for free.

// A block terminator is one of the control-transfer opcodes (branches,
// JAL, JALR), HALT, an illegal record, or termNone when the scan runs
// off the end of program memory with the block still open.
const termNone = uint8(0xFF)

// blockInfo describes one scanned basic block: the straight-line body
// (n plain records costing bodyCost cycles) and its terminator.
type blockInfo struct {
	entry    uint32
	n        uint32 // body records (non-control, each retiring one instruction)
	bodyCost uint32 // cycles consumed by the body
	termOp   uint8  // terminator opcode, xopIllegal, or termNone
	term     decoded
	worst    uint32 // bodyCost + worst-case terminator cost
}

// plainCost is the cycle cost of one plain (non-control) record.
func plainCost(op uint8) uint32 {
	switch op {
	case uint8(OpLW), uint8(OpLB), uint8(OpLBU):
		return 2
	case uint8(OpMUL), uint8(OpMULHU):
		return 4
	}
	return 1
}

// termWorst is the worst-case cycle cost of a block terminator: taken
// branches and jumps cost 2, HALT retires for 1, and illegal records
// fault before retiring anything.
func termWorst(op uint8) uint32 {
	switch op {
	case uint8(OpBEQ), uint8(OpBNE), uint8(OpBLT), uint8(OpBGE),
		uint8(OpBLTU), uint8(OpBGEU), uint8(OpJAL), uint8(OpJALR):
		return 2
	case uint8(OpHALT):
		return 1
	}
	return 0 // xopIllegal, termNone
}

// isTermOp reports whether a plain record ends a basic block.
func isTermOp(op uint8) bool {
	switch op {
	case uint8(OpBEQ), uint8(OpBNE), uint8(OpBLT), uint8(OpBGE),
		uint8(OpBLTU), uint8(OpBGEU), uint8(OpJAL), uint8(OpJALR),
		uint8(OpHALT), xopIllegal:
		return true
	}
	return false
}

// scanBlockWords scans the basic block entered at pc over raw program
// words (any slice up to ProgWords long).
func scanBlockWords(words []uint32, pc uint32) blockInfo {
	bi := blockInfo{entry: pc, termOp: termNone}
	var d decoded
	for p := pc; p < uint32(len(words)); p++ {
		predecodeWordInto(words[p], p, &d)
		if isTermOp(d.op) {
			bi.termOp = d.op
			bi.term = d
			break
		}
		bi.n++
		bi.bodyCost += plainCost(d.op)
	}
	bi.worst = bi.bodyCost + termWorst(bi.termOp)
	return bi
}

// Block kinds, for the translation statistics (see CompiledStats).
const (
	blockGeneric = iota // per-block reference interpretation
	blockKernel         // generated whole-program kernel (kernels_gen.go)
	blockRuntime        // runtime-generated block closure (regiongen.go)
	numBlockKinds
)
