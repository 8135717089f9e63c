package sabre

import (
	"fmt"
)

// This file is the compiled execution engine: basic blocks are lazily
// translated to Go closures (compile.go) and dispatched block-to-block
// through a dense table indexed by pc, so the per-record dispatch cost
// the fast engine pays (one indirect switch jump per fused record) is
// amortised to one indirect call per block. The two bundled programs
// with a generated kernel (kernels_gen.go) run whole as native
// straight-line Go — registers addressed with constant indices,
// cycle/instret charged in per-block constants, control flow lowered
// to gotos — so a run of either is one dispatch.
//
// Architectural exactness follows the same discipline as runfast.go:
//
//   - Budget: before a block runs, the dispatcher proves the remaining
//     budget strictly exceeds the block's worst-case cycle cost, which
//     implies the reference engine would retire every instruction in it
//     (each per-instruction limit pre-check passes). Kernels repeat
//     the same check at every leader and loop head. When a check
//     trips, the counters are flushed at an instruction boundary and
//     the endgame is handed to the reference single-step loop, whose
//     per-instruction check is the semantics all engines must honour.
//   - MMIO and faults: a load/store that leaves the RAM window flushes
//     pc/cycles/instret to the exact mid-block values the reference
//     interpreter would show (instruction's own pc, counters before it
//     retires) before touching the bus; faulting instructions do not
//     retire.
//   - Translation is lazy per block and invalidated by LoadProgram
//     together with the decoded array, so program reuse stays exact and
//     steady-state execution allocates nothing.

// Block execution statuses returned by blockFn.
const (
	stOK      = iota // block complete, st.pc is the next block entry
	stHalt           // HALT retired; st holds the final counters
	stErr            // fault: CPU flushed at the fault point, st.err set
	stBudget         // budget boundary inside a kernel; st exact at a block head
	stNoEntry        // kernel entered at a pc that is not a leader (defensive)
)

// cst is the compiled engine's dispatch state, threaded through every
// block closure: the architectural counters live here between flushes,
// and stop is the absolute cycle mark the budget checks test against.
type cst struct {
	r       *[16]uint32
	data    *[DataBytes]byte
	pc      uint32
	cycles  uint64
	instret uint64
	stop    uint64
	err     error
	// sf is the softfloat-intrinsic scratch record. Keeping it here
	// instead of on each wrapper's stack avoids re-zeroing it on every
	// mirrored call; wrappers reset the one field (rpRA) whose zero
	// value is meaningful.
	sf mOut
}

// blockFn executes one translated block (or region entered at st.pc)
// and reports how it left the machine.
type blockFn func(c *CPU, st *cst) int

// compiledBlock is one slot of the per-pc translation table.
type compiledBlock struct {
	fn    blockFn
	worst uint32 // worst-case cycles to the first budget boundary
	kind  uint8
}

// CompiledStats counts dispatches and retired instructions per block
// kind when attached via CollectCompiledStats — the compiled engine's
// analogue of the fusion coverage report.
type CompiledStats struct {
	Dispatches [numBlockKinds]uint64
	Instret    [numBlockKinds]uint64

	// IntrinsicCalls counts SoftFloat library calls lowered to native
	// mirrors; IntrinsicInstret is the emulated instruction count those
	// calls were charged for (a subset of the owning kind's Instret).
	IntrinsicCalls   uint64
	IntrinsicInstret uint64
}

// Retired returns the total instructions retired across all kinds.
func (s *CompiledStats) Retired() uint64 {
	var t uint64
	for _, v := range s.Instret {
		t += v
	}
	return t
}

// KernelDispatches returns dispatches that ran translated code — any
// kind except the generic per-block fallback.
func (s *CompiledStats) KernelDispatches() uint64 {
	var t uint64
	for k, v := range s.Dispatches {
		if k != blockGeneric {
			t += v
		}
	}
	return t
}

// GenericDispatches returns dispatches that fell back to the generic
// per-block reference interpreter.
func (s *CompiledStats) GenericDispatches() uint64 {
	return s.Dispatches[blockGeneric]
}

// Summary renders the one-line dispatch/intrinsic report the CLIs
// append to their MIPS summary lines, with dispatches into generated
// kernels, runtime-tier blocks and generic blocks counted apart.
func (s *CompiledStats) Summary() string {
	return fmt.Sprintf("%d intrinsic calls; dispatches: %d kernel, %d runtime, %d generic",
		s.IntrinsicCalls, s.Dispatches[blockKernel], s.Dispatches[blockRuntime], s.Dispatches[blockGeneric])
}

// CollectCompiledStats attaches (or, with nil, detaches) a translation
// statistics collector to the CPU. Attaching costs one predictable
// branch per block dispatch; benchmarks run detached.
func (c *CPU) CollectCompiledStats(s *CompiledStats) { c.cstats = s }

// resetBlocks clears the translation table, reusing its backing array.
func (c *CPU) resetBlocks() {
	if cap(c.blocks) < ProgWords {
		c.blocks = make([]compiledBlock, ProgWords)
	}
	c.blocks = c.blocks[:ProgWords]
	for i := range c.blocks {
		c.blocks[i] = compiledBlock{}
	}
	// Match program memory once per program: the canonical SoftFloat
	// blobs, so the runtime region generator can lower calls into them
	// to intrinsic mirrors (-1 when the program carries no blob), and
	// the generated kernel, if the program is one of the two that have
	// one. Both are raw-word matches, cached across table rebuilds:
	// they depend only on program memory, which LoadProgram
	// invalidates.
	if !c.progMatched {
		c.sfArith = findBlob(c.Prog, sfOff.arith)
		c.sfCmp = findBlob(c.Prog, sfOff.cmp)
		c.kernel = matchKernel(c.Prog)
		c.progMatched = true
	}
	c.blocksValid = true
}

// RunCompiled executes until HALT or until maxCycles elapse on the
// block-translation engine, returning the cycles consumed — the
// compiled counterpart of RunRef/RunFast with identical architectural
// behaviour.
func (c *CPU) RunCompiled(maxCycles uint64) (uint64, error) {
	if c.Halted {
		return 0, nil
	}
	if !c.blocksValid {
		c.resetBlocks()
	}
	start := c.Cycles
	stop := start + maxCycles
	if stop < start {
		// start+maxCycles wrapped uint64: no budget mark can represent
		// it, so the whole run goes to the — exact — reference loop.
		return c.runTail(start, maxCycles)
	}
	// The dispatch state lives on the CPU: its address is taken by every
	// block closure, so a stack-local would escape and cost one heap
	// allocation per run.
	st := &c.cstate
	*st = cst{
		r:       &c.R,
		data:    (*[DataBytes]byte)(c.Data),
		pc:      c.PC,
		cycles:  start,
		instret: c.Instret,
		stop:    stop,
	}
	blocks := c.blocks
	for {
		// Budget first, then the pc range check — the order the
		// reference loop applies them (limit pre-check, then Step).
		if st.cycles >= stop {
			c.flush(st.pc, st.cycles, st.instret)
			return st.cycles - start, ErrCycleLimit
		}
		pc := st.pc
		if pc >= uint32(len(blocks)) {
			c.flush(pc, st.cycles, st.instret)
			return st.cycles - start, fmt.Errorf("%w: pc=%d", ErrPCOutOfRange, pc)
		}
		b := &blocks[pc]
		if b.fn == nil {
			b = c.compileBlockAt(pc)
		}
		if stop-st.cycles <= uint64(b.worst) {
			// The budget could expire inside this block: flush at the
			// block boundary and let the reference loop finish exactly.
			c.flush(pc, st.cycles, st.instret)
			return c.runTail(start, maxCycles)
		}
		ib := st.instret
		status := b.fn(c, st)
		if c.cstats != nil {
			c.cstats.Dispatches[b.kind]++
			c.cstats.Instret[b.kind] += st.instret - ib
		}
		switch status {
		case stOK:
		case stHalt:
			c.Halted = true
			c.flush(st.pc, st.cycles, st.instret)
			return st.cycles - start, nil
		case stErr:
			return c.Cycles - start, st.err
		case stBudget:
			c.flush(st.pc, st.cycles, st.instret)
			return c.runTail(start, maxCycles)
		case stNoEntry:
			// A kernel bound at this pc does not recognise it as a
			// leader (unreachable by construction: the leader table and
			// the kernel's entry switch come from one leader set;
			// defensive): rebind the slot generically and re-dispatch.
			bi := scanBlockWords(c.Prog, pc)
			*b = c.genericBlock(&bi)
		}
	}
}

// genericBlock translates a block by stepping its instructions one at a
// time on the reference interpreter. The dispatcher has already proven
// the budget covers the whole block, so no per-instruction limit check
// is needed, and every reference semantic — MMIO ordering, fault
// state, byte accesses — holds by construction. It is the defensive
// rebind path only; kernels and the runtime tier cover every block.
func (c *CPU) genericBlock(bi *blockInfo) compiledBlock {
	steps := int(bi.n)
	if bi.termOp != termNone {
		steps++
	}
	fn := func(c *CPU, st *cst) int {
		c.flush(st.pc, st.cycles, st.instret)
		for i := 0; i < steps; i++ {
			if err := c.Step(); err != nil {
				st.pc, st.cycles, st.instret = c.PC, c.Cycles, c.Instret
				st.err = err
				return stErr
			}
		}
		st.pc, st.cycles, st.instret = c.PC, c.Cycles, c.Instret
		if c.Halted {
			return stHalt
		}
		return stOK
	}
	return compiledBlock{fn: fn, worst: bi.worst, kind: blockGeneric}
}

// loadSlow is the out-of-RAM load path of translated code: flush the
// exact mid-block state (instruction pc, counters before it retires),
// then take the shared bus path. Reports ok=false with st.err set on a
// fault.
func (st *cst) loadSlow(c *CPU, addr, pcAt uint32, cyc, ins uint64) (uint32, bool) {
	c.flush(pcAt, cyc, ins)
	v, err := c.busLoad(addr)
	if err != nil {
		st.err = err
		return 0, false
	}
	return v, true
}

// storeSlow is the out-of-RAM store counterpart of loadSlow.
func (st *cst) storeSlow(c *CPU, addr, v, pcAt uint32, cyc, ins uint64) bool {
	c.flush(pcAt, cyc, ins)
	if err := c.busStore(addr, v); err != nil {
		st.err = err
		return false
	}
	return true
}

// fault records a byte-access fault from translated code: flush the
// mid-block state, record the address, and hand stErr to the
// dispatcher.
func (st *cst) fault(c *CPU, addr, pcAt uint32, cyc, ins uint64, err error) int {
	c.flush(pcAt, cyc, ins)
	c.FaultAddr = addr
	st.err = err
	return stErr
}

// illegal faults on an illegal record from translated code, mirroring
// the reference interpreter's error (the fault path may allocate).
func (st *cst) illegal(c *CPU, rawOp uint32, pcAt uint32, cyc, ins uint64) int {
	c.flush(pcAt, cyc, ins)
	st.err = fmt.Errorf("%w: %d at pc=%d", ErrBadOpcode, Opcode(rawOp), pcAt)
	return stErr
}
