package sabre

import "encoding/binary"

// This file is the runtime tier of the compiled engine: the translation
// between the generated whole-program kernels (kernels_gen.go) and the
// generic per-block reference interpreter (runcompiled.go). Only two
// bundled programs have a generated kernel; every other program — the
// control program, the SoftFloat batch harnesses, mission profiles
// composed on the fly, test programs, user code — has every one of its
// blocks translated here. Coverage and speed are separate matters. In
// coverage the tier is complete: it translates every block the scanner
// produces, and the generic closure is only the defensive rebind path.
// In speed it is not kernel-grade: on integer code it runs near the
// default engine (EngineFast), several times slower than a generated
// kernel (DESIGN.md §10, ROADMAP item 1).
//
// A block translates to a chain of closures with no central dispatch:
//
//   - each body record becomes one closure with its operands captured,
//     which runs the record and calls its successor from its own call
//     site; adjacent records that fuse.go's pairOps table names and
//     bodyPair implements fold into one closure, and ALU writes to r0
//     are dropped at translation time;
//   - the last closure ends the block: it charges the body's static
//     cycle and instret cost plus the terminator's in one step, and
//     sets the next pc. Body closures never touch the counters; a load
//     or store that leaves the RAM window, and a fault, recompute the
//     exact mid-block pc and counters from the record's prefix (recAt)
//     before flushing, as the reference interpreter would show them;
//   - a conditional branch back to the block's own entry loops inside
//     the block closure, re-applying the dispatcher's budget test
//     (stop − cycles > worst) before every further iteration;
//   - a JAL whose target is a routine of a detected canonical SoftFloat
//     blob lowers to the native intrinsic mirror (intrinsics.go), which
//     declines near the budget boundary so the ordinary call runs.
//
// The dispatcher proves the budget covers the block's worst case before
// calling in, so the chain needs no per-instruction budget check.
// Blocks longer than maxChain records are cut, the rest becoming the
// next block, which bounds the chain's call depth. Translation
// allocates a closure per record or pair and per exit; execution
// allocates nothing.

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

// intrinsicFor resolves a JAL target word index to the intrinsic mirror
// of the SoftFloat routine it calls, against the blob offsets detected
// by resetBlocks. Returns a nil handler when the target is not a
// recognised routine entry.
func (c *CPU) intrinsicFor(target uint32) (intrinHandler, uint32) {
	if c.sfArith >= 0 && target >= uint32(c.sfArith) {
		if h, ok := arithIntrins[target-uint32(c.sfArith)]; ok {
			return h, uint32(c.sfArith)
		}
	}
	if c.sfCmp >= 0 && target >= uint32(c.sfCmp) {
		if h, ok := cmpIntrins[target-uint32(c.sfCmp)]; ok {
			return h, uint32(c.sfCmp)
		}
	}
	return nil, 0
}

// maxChain is the most body records one runtime block translates; a
// longer block ends open after maxChain records and the dispatcher
// enters the rest as a block of its own. Sixteen keeps a chain's
// returns within a typical return-stack predictor; on runtime-only
// FxBoresight (blocks of up to 26 records) a cut at 32 ran no faster,
// and one at 8 ran 2% slower.
const maxChain = 16

// stLoop is the status a self-looping block's exit returns when it took
// the branch back to the block's own entry. The loop wrapper in
// runtimeBlock consumes it; the dispatcher never sees it.
const stLoop = stNoEntry + 1

// recAt locates a body record for the slow paths: its pc, and the
// instructions and cycles its block retires before it.
type recAt struct {
	pc, ins, cyc uint32
}

// next is the position of the record after this one, which costs cost.
func (a recAt) next(cost uint32) recAt { return recAt{a.pc + 1, a.ins + 1, a.cyc + cost} }

// loadSlow is a word load's path out of the RAM window: the bus load
// at the record's exact counters, then the write to rd (none for r0).
// Closures test for RAM themselves, so the slow paths stay out of line.
func (a recAt) loadSlow(c *CPU, st *cst, addr uint32, rd uint8) bool {
	v, ok := st.loadSlow(c, addr, a.pc, st.cycles+uint64(a.cyc), st.instret+uint64(a.ins))
	if ok && rd != 0 {
		c.R[rd&15] = v
	}
	return ok
}

// storeSlow is a word store's path out of the RAM window.
func (a recAt) storeSlow(c *CPU, st *cst, addr, v uint32) bool {
	return st.storeSlow(c, addr, v, a.pc, st.cycles+uint64(a.cyc), st.instret+uint64(a.ins))
}

// inRAM reports whether a word access at addr takes the fast path.
func inRAM(addr uint32) bool { return addr&3 == 0 && addr <= DataBytes-4 }

// fault is st.fault at the record's exact counters.
func (a recAt) fault(c *CPU, st *cst, addr uint32, err error) int {
	return st.fault(c, addr, a.pc, st.cycles+uint64(a.cyc), st.instret+uint64(a.ins), err)
}

// runtimeBlock translates a scanned block that no generated kernel
// covers into a chain of closures.
func (c *CPU) runtimeBlock(bi *blockInfo) compiledBlock {
	n, worst := bi.n, bi.worst
	term := bi.term
	termOp := bi.termOp
	var recs [maxChain]decoded
	if n > maxChain {
		n, termOp, worst = maxChain, termNone, 0
	}
	// Each record's position, and the body's cost up to the end.
	var ats [maxChain + 1]recAt
	ats[0] = recAt{pc: bi.entry}
	for i := uint32(0); i < n; i++ {
		predecodeWordInto(c.Prog[bi.entry+i], bi.entry+i, &recs[i])
		ats[i+1] = ats[i].next(plainCost(recs[i].op))
	}
	if termOp == termNone {
		worst = ats[n].cyc
	}

	// Chain the closures back to front from the exit: records dropped as
	// r0 writes get none, pairs that fold get one between them. The last
	// record left may fold into a conditional exit.
	i := n
	for i > 0 && dropsR0(&recs[i-1]) {
		i--
	}
	var pre *decoded
	if i > 0 && exitFolds(&recs[i-1], termOp) {
		pre = &recs[i-1]
		i--
	}
	// Conditional branches are the contiguous opcodes BEQ..BGEU.
	loop := termOp >= uint8(OpBEQ) && termOp <= uint8(OpBGEU) && uint32(term.imm) == bi.entry
	fn := c.blockExit(ats[n], termOp, &term, pre, loop)
	for i > 0 {
		switch d := &recs[i-1]; {
		case dropsR0(d):
			i--
		case i >= 2 && pairFolds(&recs[i-2], d):
			fn = bodyPair(&recs[i-2], d, ats[i-2], fn)
			i -= 2
		default:
			fn = bodyOp(d, ats[i-1], fn)
			i--
		}
	}
	if loop {
		head, w := fn, uint64(worst)
		fn = func(c *CPU, st *cst) int {
			for {
				s := head(c, st)
				if s != stLoop {
					return s
				}
				if st.stop-st.cycles <= w {
					return stOK
				}
			}
		}
	}
	return compiledBlock{fn: fn, worst: worst, kind: blockRuntime}
}

// dropsR0 reports whether a body record is an ALU write to r0, which
// has no effect beyond the cycles the block charges statically.
func dropsR0(d *decoded) bool {
	switch d.op {
	case uint8(OpLW), uint8(OpLB), uint8(OpLBU), uint8(OpSW), uint8(OpSB):
		return false
	}
	return d.rd == 0
}

// bodyOp returns the closure that runs body record d, at position at,
// and then calls next. ALU records writing r0 never get here (dropsR0).
func bodyOp(d *decoded, at recAt, next blockFn) blockFn {
	rd, rs1, rs2 := d.rd&15, d.rs1&15, d.rs2&15
	imm := uint32(d.imm)
	switch d.op {
	case uint8(OpADD):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] + c.R[rs2]; return next(c, st) }
	case uint8(OpSUB):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] - c.R[rs2]; return next(c, st) }
	case uint8(OpAND):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] & c.R[rs2]; return next(c, st) }
	case uint8(OpOR):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] | c.R[rs2]; return next(c, st) }
	case uint8(OpXOR):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] ^ c.R[rs2]; return next(c, st) }
	case uint8(OpSLL):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] << (c.R[rs2] & 31); return next(c, st) }
	case uint8(OpSRL):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] >> (c.R[rs2] & 31); return next(c, st) }
	case uint8(OpSRA):
		return func(c *CPU, st *cst) int {
			c.R[rd] = uint32(int32(c.R[rs1]) >> (c.R[rs2] & 31))
			return next(c, st)
		}
	case uint8(OpMUL):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] * c.R[rs2]; return next(c, st) }
	case uint8(OpMULHU):
		return func(c *CPU, st *cst) int {
			c.R[rd] = uint32(uint64(c.R[rs1]) * uint64(c.R[rs2]) >> 32)
			return next(c, st)
		}
	case uint8(OpSLT):
		return func(c *CPU, st *cst) int { c.R[rd] = b2u(int32(c.R[rs1]) < int32(c.R[rs2])); return next(c, st) }
	case uint8(OpSLTU):
		return func(c *CPU, st *cst) int { c.R[rd] = b2u(c.R[rs1] < c.R[rs2]); return next(c, st) }
	case uint8(OpADDI):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] + imm; return next(c, st) }
	case uint8(OpANDI):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] & imm; return next(c, st) }
	case uint8(OpORI):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] | imm; return next(c, st) }
	case uint8(OpXORI):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] ^ imm; return next(c, st) }
	case uint8(OpSLLI):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] << imm; return next(c, st) }
	case uint8(OpSRLI):
		return func(c *CPU, st *cst) int { c.R[rd] = c.R[rs1] >> imm; return next(c, st) }
	case uint8(OpSRAI):
		return func(c *CPU, st *cst) int { c.R[rd] = uint32(int32(c.R[rs1]) >> imm); return next(c, st) }
	case uint8(OpSLTI):
		return func(c *CPU, st *cst) int { c.R[rd] = b2u(int32(c.R[rs1]) < int32(imm)); return next(c, st) }
	case uint8(OpSLTIU):
		return func(c *CPU, st *cst) int { c.R[rd] = b2u(c.R[rs1] < imm); return next(c, st) }
	case uint8(OpLUI):
		return func(c *CPU, st *cst) int { c.R[rd] = imm; return next(c, st) }
	case uint8(OpLW):
		if rd == 0 {
			// Loads into r0 are rare; the bus path serves RAM too.
			return func(c *CPU, st *cst) int {
				if !at.loadSlow(c, st, c.R[rs1]+imm, 0) {
					return stErr
				}
				return next(c, st)
			}
		}
		return func(c *CPU, st *cst) int {
			if addr := c.R[rs1] + imm; inRAM(addr) {
				c.R[rd] = binary.LittleEndian.Uint32(st.data[addr:])
			} else if !at.loadSlow(c, st, addr, rd) {
				return stErr
			}
			return next(c, st)
		}
	case uint8(OpLB), uint8(OpLBU):
		signed := d.op == uint8(OpLB)
		return func(c *CPU, st *cst) int {
			addr := c.R[rs1] + imm
			if addr >= DataBytes {
				return at.fault(c, st, addr, errByteLoadFault)
			}
			if rd != 0 {
				v := uint32(st.data[addr])
				if signed {
					v = uint32(int32(int8(v)))
				}
				c.R[rd] = v
			}
			return next(c, st)
		}
	case uint8(OpSW):
		return func(c *CPU, st *cst) int {
			if addr := c.R[rs1] + imm; inRAM(addr) {
				binary.LittleEndian.PutUint32(st.data[addr:], c.R[rd])
			} else if !at.storeSlow(c, st, addr, c.R[rd]) {
				return stErr
			}
			return next(c, st)
		}
	case uint8(OpSB):
		return func(c *CPU, st *cst) int {
			addr := c.R[rs1] + imm
			if addr >= DataBytes {
				return at.fault(c, st, addr, errByteStoreFault)
			}
			st.data[addr] = byte(c.R[rd])
			return next(c, st)
		}
	}
	// Unreachable: the scanner ends a block at every other op.
	panic("sabre: runtime block body holds a terminator")
}

// pairFolds reports whether body records d1 and d2 fold into one
// closure: a pair fuse.go's pairOps table names and bodyPair
// implements, with neither component writing r0.
func pairFolds(d1, d2 *decoded) bool {
	switch pairOps[pairKey(Opcode(d1.op), Opcode(d2.op))] {
	case xopLWLW, xopADDIADDI, xopSRLISLLI, xopSLLIOR:
		return d1.rd != 0 && d2.rd != 0
	}
	return false
}

// bodyPair returns the closure that runs a pair of body records that
// pairFolds accepts, d1 at position at, in program order and then calls
// next.
func bodyPair(d1, d2 *decoded, at recAt, next blockFn) blockFn {
	rd1, a1, i1 := d1.rd&15, d1.rs1&15, uint32(d1.imm)
	rd2, a2, b2, i2 := d2.rd&15, d2.rs1&15, d2.rs2&15, uint32(d2.imm)
	switch pairOps[pairKey(Opcode(d1.op), Opcode(d2.op))] {
	case xopLWLW:
		at2 := at.next(plainCost(uint8(OpLW)))
		return func(c *CPU, st *cst) int {
			if addr := c.R[a1] + i1; inRAM(addr) {
				c.R[rd1] = binary.LittleEndian.Uint32(st.data[addr:])
			} else if !at.loadSlow(c, st, addr, rd1) {
				return stErr
			}
			if addr := c.R[a2] + i2; inRAM(addr) {
				c.R[rd2] = binary.LittleEndian.Uint32(st.data[addr:])
			} else if !at2.loadSlow(c, st, addr, rd2) {
				return stErr
			}
			return next(c, st)
		}
	case xopADDIADDI:
		return func(c *CPU, st *cst) int {
			c.R[rd1] = c.R[a1] + i1
			c.R[rd2] = c.R[a2] + i2
			return next(c, st)
		}
	case xopSRLISLLI:
		return func(c *CPU, st *cst) int {
			c.R[rd1] = c.R[a1] >> i1
			c.R[rd2] = c.R[a2] << i2
			return next(c, st)
		}
	case xopSLLIOR:
		return func(c *CPU, st *cst) int {
			c.R[rd1] = c.R[a1] << i1
			c.R[rd2] = c.R[a2] | c.R[b2]
			return next(c, st)
		}
	}
	panic("sabre: bodyPair called on a pair pairFolds rejects")
}

// exitFolds reports whether the block's last body record d folds into
// its conditional exit: an ADDI before a BEQ or BNE, pairs that
// pairOps names.
func exitFolds(d *decoded, termOp uint8) bool {
	return d.op == uint8(OpADDI) && d.rd != 0 &&
		(termOp == uint8(OpBEQ) || termOp == uint8(OpBNE)) &&
		pairOps[pairKey(OpADDI, Opcode(termOp))] != 0
}

// condExit is a conditional-branch exit's outcome: the counters it
// charges for the whole block and where each direction goes.
type condExit struct {
	ins             uint64 // body records plus the branch
	taken, notTaken uint64 // body cycles plus the branch's
	target, fall    uint32
	loop            int // status when taken: stLoop back to the block's own entry, else stOK
}

func (x *condExit) exit(st *cst, taken bool) int {
	st.instret += x.ins
	if taken {
		st.pc = x.target
		st.cycles += x.taken
		return x.loop
	}
	st.pc = x.fall
	st.cycles += x.notTaken
	return stOK
}

// blockExit returns the closure that ends a runtime block of body
// records costing end.cyc cycles: it runs an optional ADDI folded from
// the body (pre), then the terminator, charges the block's counters and
// leaves st.pc at the next block entry.
func (c *CPU) blockExit(end recAt, termOp uint8, term *decoded, pre *decoded, loop bool) blockFn {
	ins, cyc := uint64(end.ins), uint64(end.cyc)
	tpc := end.pc // terminator pc, or the first word past an open block
	rs1, rs2, rd := term.rs1&15, term.rs2&15, term.rd&15
	imm, link := uint32(term.imm), uint32(term.imm2)
	switch termOp {
	case termNone:
		return func(c *CPU, st *cst) int {
			st.pc = tpc
			st.cycles += cyc
			st.instret += ins
			return stOK
		}
	case uint8(OpHALT):
		return func(c *CPU, st *cst) int {
			st.pc = tpc + 1
			st.cycles += cyc + 1
			st.instret += ins + 1
			return stHalt
		}
	case uint8(OpJAL):
		if rd == 15 {
			if intrin, lb := c.intrinsicFor(imm); intrin != nil {
				return func(c *CPU, st *cst) int {
					cy, in := st.cycles+cyc, st.instret+ins
					if ncy, nin, ok := intrin(c, st, cy, in, link, lb); ok {
						st.pc = tpc + 1
						st.cycles, st.instret = ncy, nin
						return stOK
					}
					c.R[15] = link
					st.pc = imm
					st.cycles, st.instret = cy+2, in+1
					return stOK
				}
			}
		}
		return func(c *CPU, st *cst) int {
			if rd != 0 {
				c.R[rd] = link
			}
			st.pc = imm
			st.cycles += cyc + 2
			st.instret += ins + 1
			return stOK
		}
	case uint8(OpJALR):
		return func(c *CPU, st *cst) int {
			st.pc = (c.R[rs1] + imm) / 4
			if rd != 0 {
				c.R[rd] = link
			}
			st.cycles += cyc + 2
			st.instret += ins + 1
			return stOK
		}
	case xopIllegal:
		return func(c *CPU, st *cst) int {
			return st.illegal(c, imm, tpc, st.cycles+cyc, st.instret+ins)
		}
	}
	taken := stOK
	if loop {
		taken = stLoop
	}
	x := condExit{ins: ins + 1, taken: cyc + 2, notTaken: cyc + 1, target: imm, fall: tpc + 1, loop: taken}
	if pre != nil {
		prd, prs, pimm := pre.rd&15, pre.rs1&15, uint32(pre.imm)
		switch termOp {
		case uint8(OpBNE):
			return func(c *CPU, st *cst) int {
				c.R[prd] = c.R[prs] + pimm
				return x.exit(st, c.R[rs1] != c.R[rs2])
			}
		case uint8(OpBEQ):
			return func(c *CPU, st *cst) int {
				c.R[prd] = c.R[prs] + pimm
				return x.exit(st, c.R[rs1] == c.R[rs2])
			}
		}
	}
	switch termOp {
	case uint8(OpBEQ):
		return func(c *CPU, st *cst) int { return x.exit(st, c.R[rs1] == c.R[rs2]) }
	case uint8(OpBNE):
		return func(c *CPU, st *cst) int { return x.exit(st, c.R[rs1] != c.R[rs2]) }
	case uint8(OpBLT):
		return func(c *CPU, st *cst) int { return x.exit(st, int32(c.R[rs1]) < int32(c.R[rs2])) }
	case uint8(OpBGE):
		return func(c *CPU, st *cst) int { return x.exit(st, int32(c.R[rs1]) >= int32(c.R[rs2])) }
	case uint8(OpBLTU):
		return func(c *CPU, st *cst) int { return x.exit(st, c.R[rs1] < c.R[rs2]) }
	}
	return func(c *CPU, st *cst) int { return x.exit(st, c.R[rs1] >= c.R[rs2]) } // BGEU
}
