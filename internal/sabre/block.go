package sabre

// This file is the basic-block layer of the compiled execution engine
// (runcompiled.go): a scanner that partitions program memory into
// straight-line blocks, a position-independent signature encoding used
// to recognise known code shapes, and the registry the block translator
// (compile.go) consults before falling back to the generic per-block
// interpreter.
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

// encRec packs one plain record into the 64-bit signature element used
// for block matching: op and register fields in the low word, the
// immediate in the high word. Branch and JAL targets (absolute word
// indices after predecode) are re-encoded relative to base, so
// identical code at different load addresses produces identical
// signatures; JAL/JALR link values are derivable from the record's
// position and are not encoded.
func encRec(d *decoded, base uint32) uint64 {
	imm := uint32(d.imm)
	switch d.op {
	case uint8(OpBEQ), uint8(OpBNE), uint8(OpBLT), uint8(OpBGE),
		uint8(OpBLTU), uint8(OpBGEU), uint8(OpJAL):
		imm -= base
	}
	return uint64(d.op) | uint64(d.rd)<<8 | uint64(d.rs1)<<16 |
		uint64(d.rs2)<<24 | uint64(imm)<<32
}

// FNV-1a over signature elements.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func sigHashInit() uint64 { return fnvOffset }

func sigHashAdd(h, e uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (e >> i & 0xFF)) * fnvPrime
	}
	return h
}

// blockKey hashes the records of the block entered at pc (body plus
// terminator, if any) with targets encoded relative to pc itself. This
// is the lookup key the translator computes for every block entry and
// the one each registered kernel leader is indexed under.
func blockKeyWords(words []uint32, pc uint32, bi *blockInfo) uint64 {
	h := sigHashInit()
	var d decoded
	end := pc + bi.n
	for p := pc; p < end; p++ {
		predecodeWordInto(words[p], p, &d)
		h = sigHashAdd(h, encRec(&d, pc))
	}
	if bi.termOp != termNone {
		t := bi.term
		h = sigHashAdd(h, encRec(&t, pc))
	}
	return h
}

// matchSigWords verifies that the len(sig) records starting at base
// encode (relative to base) exactly to sig.
func matchSigWords(words []uint32, base uint32, sig []uint64) bool {
	if uint64(base)+uint64(len(sig)) > uint64(len(words)) {
		return false
	}
	var d decoded
	for i, want := range sig {
		p := base + uint32(i)
		predecodeWordInto(words[p], p, &d)
		if encRec(&d, base) != want {
			return false
		}
	}
	return true
}

// Block kinds, for the translation statistics (see CompiledStats).
const (
	blockGeneric = iota // per-block reference interpretation
	blockRegion         // generated region kernel (kernels_gen.go)
	blockRuntime        // runtime-generated block closure (regiongen.go)
	numBlockKinds
)

// kernelEntry is one registered entry point into a translated region: a
// leader at backOff words past the region base. The full region
// signature (relative to the base) is verified before the kernel is
// bound, so a hash collision or a half-matching program falls back to
// the generic path rather than misexecuting.
type kernelEntry struct {
	backOff uint32   // leader offset within the region
	worst   uint32   // worst-case straight-line cycles from this leader to its block's first budget boundary
	sig     []uint64 // full region signature, targets relative to region base
	bind    func(base uint32) blockFn
	kind    uint8
}

// kernelIndex maps a leader's block key to its candidate kernels. It is
// populated by kernels_gen.go's init function and read-only afterwards,
// so concurrent CPUs share it safely.
var kernelIndex = map[uint64][]kernelEntry{}

func registerKernel(key uint64, e kernelEntry) {
	kernelIndex[key] = append(kernelIndex[key], e)
}
