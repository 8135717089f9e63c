package sabre

import (
	"fmt"
)

// This file is the fast execution engine: a threaded run loop over the
// predecoded (and superinstruction-fused) program array built by
// decode.go/fuse.go. Go has no computed goto, so the direct-threaded
// dispatch is a dense jump-table switch over the predecoded opcode —
// one indirect jump per record, with no per-step function call, no
// field re-extraction, and the architectural counters (PC, cycle and
// instruction counts) held in locals that are flushed to the CPU struct
// only at peripheral accesses and loop exits.
//
// Two shortcuts take whole stretches of a run off the interpreter:
//
//   - Intrinsic records. predecode lowers every `jal r15` into a
//     routine of a canonical SoftFloat blob to an intrinsic record,
//     which runs the routine's native mirror (intrinsics.go) when the
//     budget covers it and makes the plain call otherwise.
//   - Kernel binding. When the loaded program is one of the two with a
//     generated whole-program kernel (kernel.go), a run entered at one
//     of the kernel's leaders is one call into native code, which
//     covers the program's own code and calls the mirrors for its
//     library calls.
//
// RAM loads and stores take an inlined fast path (one bounds-and-
// alignment test plus an unrolled little-endian access); only accesses
// that leave the RAM window fall into the shared peripheral span
// dispatch of busLoad/busStore, after flushing the counters so
// cycle-reading peripherals (Counter) observe exactly the state the
// reference interpreter would show them.
//
// The engine is architecturally identical to the reference Step() loop:
// same registers, memory, peripheral side effects and ordering, fault
// and halt behaviour, cycle accounting and retired-instruction counts.
// The engine-parity differential tests and FuzzEngineParity hold both
// engines to bit-identical outcomes across the full ISA.
//
// One structural trick keeps cycle-limit semantics exact without a
// budget check on every dispatch: only checkpoint records — those whose
// handlers can redirect or terminate control flow — test the budget,
// against a threshold lowered by the program's maximum straight-line
// cost (see computeMaxRun). A passing check proves the whole
// checkpoint-free run ahead fits in the remaining budget, and once the
// threshold trips the loop hands the tail of the run to the reference
// single-step loop, which applies the per-instruction limit check
// verbatim. A mirror commits only below the same lowered mark, so the
// run after it fits too.

// Engine selects between the CPU's two execution engines.
type Engine uint8

const (
	// EngineFast is the predecoded, superinstruction-fused engine with
	// the SoftFloat mirrors and the generated kernels — the default.
	EngineFast Engine = iota
	// EngineRef is the reference fetch-decode-execute interpreter,
	// one Step() per instruction.
	EngineRef
)

// EngineCompiled is another name for EngineFast, kept because
// perfbench's compiled slot selects the engine by this name.
const EngineCompiled = EngineFast

// String returns the CLI name of the engine.
func (e Engine) String() string {
	if e == EngineRef {
		return "ref"
	}
	return "fast"
}

// ParseEngine converts a CLI flag value ("ref" or "fast") to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "ref":
		return EngineRef, nil
	case "fast":
		return EngineFast, nil
	}
	return EngineFast, fmt.Errorf("sabre: unknown engine %q (want ref or fast)", s)
}

// Dispatch kinds, for CompiledStats.
const (
	dispKernel = iota // a call into a generated whole-program kernel
	dispInterp        // a stretch of the interpreter, reference endgame included
	numDispKinds
)

// CompiledStats counts, when attached via CollectCompiledStats, how
// the fast engine's runs split between generated-kernel calls and
// interpreted stretches, and the SoftFloat calls its native mirrors
// took. perfbench reads it, and its methods, under these names.
type CompiledStats struct {
	Dispatches [numDispKinds]uint64
	Instret    [numDispKinds]uint64

	// IntrinsicCalls counts SoftFloat library calls lowered to native
	// mirrors; IntrinsicInstret is the emulated instruction count those
	// calls were charged for (a subset of the owning kind's Instret).
	IntrinsicCalls   uint64
	IntrinsicInstret uint64
}

// Retired returns the total instructions retired across all kinds.
func (s *CompiledStats) Retired() uint64 {
	return s.Instret[dispKernel] + s.Instret[dispInterp]
}

// KernelDispatches returns every dispatch the engine made: kernel calls
// and interpreted stretches. No dispatch falls back to a generic block
// (GenericDispatches), so the two sum to the same total.
func (s *CompiledStats) KernelDispatches() uint64 {
	return s.Dispatches[dispKernel] + s.Dispatches[dispInterp]
}

// GenericDispatches is always 0: the engine has no generic per-block
// fallback.
func (s *CompiledStats) GenericDispatches() uint64 { return 0 }

// Summary renders the one-line dispatch/intrinsic report the CLIs
// append to their MIPS summary lines.
func (s *CompiledStats) Summary() string {
	return fmt.Sprintf("%d intrinsic calls; dispatches: %d kernel, %d interpreted",
		s.IntrinsicCalls, s.Dispatches[dispKernel], s.Dispatches[dispInterp])
}

// CollectCompiledStats attaches (or, with nil, detaches) a statistics
// collector to the CPU. Attaching costs one predictable branch per run,
// kernel call and mirrored call; benchmarks run detached.
func (c *CPU) CollectCompiledStats(s *CompiledStats) { c.cstats = s }

// flush writes the loop-local architectural counters back to the CPU
// struct. Called before peripheral accesses (so bus devices observe
// reference-identical state) and on every loop exit.
func (c *CPU) flush(pc uint32, cycles, instret uint64) {
	c.PC = pc
	c.Cycles = cycles
	c.Instret = instret
}

// runTail finishes a run whose remaining cycle budget is small enough
// that a limit could expire between the components of a fused record:
// it delegates to the reference single-step loop, whose per-instruction
// budget check is the semantics both engines must honour.
func (c *CPU) runTail(start, maxCycles uint64) (uint64, error) {
	for !c.Halted {
		if c.Cycles-start >= maxCycles {
			return c.Cycles - start, ErrCycleLimit
		}
		if err := c.Step(); err != nil {
			return c.Cycles - start, err
		}
	}
	return c.Cycles - start, nil
}

// RunFast executes until HALT or until maxCycles elapse on the
// predecoded engine, returning the cycles consumed — the fast
// counterpart of RunRef with identical architectural behaviour.
func (c *CPU) RunFast(maxCycles uint64) (uint64, error) {
	s := c.cstats
	if s == nil {
		return c.runFast(maxCycles)
	}
	ins, kernelIns := c.Instret, s.Instret[dispKernel]
	ran, err := c.runFast(maxCycles)
	if n := c.Instret - ins - (s.Instret[dispKernel] - kernelIns); n > 0 {
		s.Dispatches[dispInterp]++
		s.Instret[dispInterp] += n
	}
	return ran, err
}

// runFast is RunFast without the statistics of interpreted stretches.
func (c *CPU) runFast(maxCycles uint64) (uint64, error) {
	if c.Halted {
		return 0, nil
	}
	if !c.decValid {
		c.predecode()
	}
	dec := (*[ProgWords]decoded)(c.dec)
	// A fixed-size array pointer lets the compiler fold the RAM fast
	// path's explicit range guards into the element accesses (no
	// per-access slice bounds checks), and the open-coded byte loads
	// and stores below compile to single 32-bit accesses — the
	// binary.LittleEndian helpers stay out-of-line in a function this
	// large.
	data := (*[DataBytes]byte)(c.Data)
	r := &c.R
	pc, cycles, instret := c.PC, c.Cycles, c.Instret
	start := cycles
	// The cycle-budget check lives only on checkpoint records — those
	// whose handlers can redirect or terminate control flow — not on
	// every dispatch. The handoff threshold is lowered by the program's
	// maximum straight-line cost (maxRun): when a checkpoint's check
	// passes, remaining > fusedCostMax + maxRun, so the checkpoint
	// itself and the entire checkpoint-free run it leads to provably fit
	// in the budget — the reference engine would execute every one of
	// those records too, faults included. Once the threshold trips, the
	// endgame goes to the reference loop, whose per-instruction limit
	// check is the semantics both engines must honour. (If start+
	// maxCycles ever wrapped uint64 the stop mark would come out tiny
	// and the whole run would fall to the — exact — reference loop:
	// slow, never wrong.)
	guard := fusedCostMax + c.maxRun
	if maxCycles <= guard {
		return c.runTail(start, maxCycles)
	}
	stop := start + maxCycles - guard

	// A generated kernel runs the program from any of its leaders whose
	// worst-case cycles to the kernel's first budget check the budget
	// strictly exceeds. It checks the budget itself against the
	// unlowered mark, and hands back an exact state at every exit.
	if k := c.kernel; k != nil {
		if worst, ok := k.leaders[pc]; ok && maxCycles > uint64(worst) && start+maxCycles > start {
			st := &c.cstate
			*st = cst{r: r, data: data, pc: pc, cycles: start, instret: instret, stop: start + maxCycles}
			status := k.fn(c, st)
			if s := c.cstats; s != nil {
				s.Dispatches[dispKernel]++
				s.Instret[dispKernel] += st.instret - instret
			}
			switch status {
			case stHalt:
				c.Halted = true
				c.flush(st.pc, st.cycles, st.instret)
				return st.cycles - start, nil
			case stErr:
				return c.Cycles - start, st.err
			case stBudget:
				c.flush(st.pc, st.cycles, st.instret)
				return c.runTail(start, maxCycles)
			}
			// stOK: the kernel left its code, by a return to a pc that is
			// not a leader or by a library call whose mirror declined;
			// the interpreter resumes there once the lowered mark is
			// re-checked, since the record it resumes at may not be a
			// checkpoint.
			pc, cycles, instret = st.pc, st.cycles, st.instret
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
		}
	}

	for {
		if pc >= uint32(len(dec)) {
			c.flush(pc, cycles, instret)
			if cycles >= stop {
				return c.runTail(start, maxCycles)
			}
			return cycles - start, fmt.Errorf("%w: pc=%d", ErrPCOutOfRange, pc)
		}
		d := &dec[pc]

		switch d.op {
		case uint8(OpHALT):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			c.Halted = true
			c.flush(pc+1, cycles+1, instret+1)
			return cycles + 1 - start, nil

		// ---- R-type ALU ----
		case uint8(OpADD):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + r[d.rs2&15]
			}
		case uint8(OpSUB):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] - r[d.rs2&15]
			}
		case uint8(OpAND):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] & r[d.rs2&15]
			}
		case uint8(OpOR):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] | r[d.rs2&15]
			}
		case uint8(OpXOR):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] ^ r[d.rs2&15]
			}
		case uint8(OpSLL):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << (r[d.rs2&15] & 31)
			}
		case uint8(OpSRL):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] >> (r[d.rs2&15] & 31)
			}
		case uint8(OpSRA):
			if d.rd != 0 {
				r[d.rd&15] = uint32(int32(r[d.rs1&15]) >> (r[d.rs2&15] & 31))
			}
		case uint8(OpMUL):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] * r[d.rs2&15]
			}
			pc++
			cycles += 4
			instret++
			continue
		case uint8(OpMULHU):
			if d.rd != 0 {
				r[d.rd&15] = uint32(uint64(r[d.rs1&15]) * uint64(r[d.rs2&15]) >> 32)
			}
			pc++
			cycles += 4
			instret++
			continue
		case uint8(OpSLT):
			if d.rd != 0 {
				r[d.rd&15] = b2u(int32(r[d.rs1&15]) < int32(r[d.rs2&15]))
			}
		case uint8(OpSLTU):
			if d.rd != 0 {
				r[d.rd&15] = b2u(r[d.rs1&15] < r[d.rs2&15])
			}

		// ---- I-type ALU ----
		case uint8(OpADDI):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
		case uint8(OpANDI):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] & uint32(d.imm)
			}
		case uint8(OpORI):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] | uint32(d.imm)
			}
		case uint8(OpXORI):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] ^ uint32(d.imm)
			}
		case uint8(OpSLLI):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << uint32(d.imm)
			}
		case uint8(OpSRLI):
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] >> uint32(d.imm)
			}
		case uint8(OpSRAI):
			if d.rd != 0 {
				r[d.rd&15] = uint32(int32(r[d.rs1&15]) >> uint32(d.imm))
			}
		case uint8(OpSLTI):
			if d.rd != 0 {
				r[d.rd&15] = b2u(int32(r[d.rs1&15]) < d.imm)
			}
		case uint8(OpSLTIU):
			if d.rd != 0 {
				r[d.rd&15] = b2u(r[d.rs1&15] < uint32(d.imm))
			}
		case uint8(OpLUI):
			if d.rd != 0 {
				r[d.rd&15] = uint32(d.imm)
			}

		// ---- memory ----
		case uint8(OpLW):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd != 0 {
					r[d.rd&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd != 0 {
					r[d.rd&15] = v
				}
			}
			pc++
			cycles += 2
			instret++
			continue
		case uint8(OpLB):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr >= DataBytes {
				c.flush(pc, cycles, instret)
				c.FaultAddr = addr
				return cycles - start, errByteLoadFault
			}
			if d.rd != 0 {
				r[d.rd&15] = uint32(int32(int8(data[addr])))
			}
			pc++
			cycles += 2
			instret++
			continue
		case uint8(OpLBU):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr >= DataBytes {
				c.flush(pc, cycles, instret)
				c.FaultAddr = addr
				return cycles - start, errByteLoadFault
			}
			if d.rd != 0 {
				r[d.rd&15] = uint32(data[addr])
			}
			pc++
			cycles += 2
			instret++
			continue
		case uint8(OpSW):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc, cycles, instret)
				if err := c.busStore(addr, r[d.rd&15]); err != nil {
					return cycles - start, err
				}
			}
		case uint8(OpSB):
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr >= DataBytes {
				c.flush(pc, cycles, instret)
				c.FaultAddr = addr
				return cycles - start, errByteStoreFault
			}
			data[addr] = byte(r[d.rd&15])

		// ---- control transfer ----
		case uint8(OpBEQ):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if r[d.rs1&15] == r[d.rs2&15] {
				pc = uint32(d.imm)
				cycles += 2
				instret++
				continue
			}
		case uint8(OpBNE):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if r[d.rs1&15] != r[d.rs2&15] {
				pc = uint32(d.imm)
				cycles += 2
				instret++
				continue
			}
		case uint8(OpBLT):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if int32(r[d.rs1&15]) < int32(r[d.rs2&15]) {
				pc = uint32(d.imm)
				cycles += 2
				instret++
				continue
			}
		case uint8(OpBGE):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if int32(r[d.rs1&15]) >= int32(r[d.rs2&15]) {
				pc = uint32(d.imm)
				cycles += 2
				instret++
				continue
			}
		case uint8(OpBLTU):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if r[d.rs1&15] < r[d.rs2&15] {
				pc = uint32(d.imm)
				cycles += 2
				instret++
				continue
			}
		case uint8(OpBGEU):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if r[d.rs1&15] >= r[d.rs2&15] {
				pc = uint32(d.imm)
				cycles += 2
				instret++
				continue
			}
		case uint8(OpJAL):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = uint32(d.imm2)
			}
			pc = uint32(d.imm)
			cycles += 2
			instret++
			continue
		case uint8(OpJALR):
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			target := (r[d.rs1&15] + uint32(d.imm)) / 4
			if d.rd != 0 {
				r[d.rd&15] = uint32(d.imm2)
			}
			pc = target
			cycles += 2
			instret++
			continue

		// ---- superinstructions (fuse.go) ----
		case xopLUIConst:
			if d.rd != 0 {
				r[d.rd&15] = uint32(d.imm)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopLWLW:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd != 0 {
					r[d.rd&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd != 0 {
					r[d.rd&15] = v
				}
			}
			cycles += 2
			instret++
			addr = r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd2 != 0 {
					r[d.rd2&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+1, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd2 != 0 {
					r[d.rd2&15] = v
				}
			}
			pc += 2
			cycles += 2
			instret++
			continue

		case xopSWSW:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc, cycles, instret)
				if err := c.busStore(addr, r[d.rd&15]); err != nil {
					return cycles - start, err
				}
			}
			cycles++
			instret++
			addr = r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd2&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc+1, cycles, instret)
				if err := c.busStore(addr, r[d.rd2&15]); err != nil {
					return cycles - start, err
				}
			}
			pc += 2
			cycles++
			instret++
			continue

		case xopADDISW:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			cycles++
			instret++
			addr := r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd2&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc+1, cycles, instret)
				if err := c.busStore(addr, r[d.rd2&15]); err != nil {
					return cycles - start, err
				}
			}
			pc += 2
			cycles++
			instret++
			continue

		case xopSLLISLLI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] << uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSRLISLLI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] >> uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] << uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSLLISRLI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] >> uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSLLISRAI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = uint32(int32(r[d.rs3&15]) >> uint32(d.imm2))
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSLLIOR:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] | r[d.rs4&15]
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDIADDI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopMULMULHU:
			p := uint64(r[d.rs1&15]) * uint64(r[d.rs2&15])
			if d.rd != 0 {
				r[d.rd&15] = uint32(p)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = uint32(p >> 32)
			}
			pc += 2
			cycles += 8
			instret += 2
			continue

		case xopADDIBEQ:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if r[d.rs3&15] == r[d.rs4&15] {
				pc = uint32(d.imm2)
				cycles += 3
			} else {
				pc += 2
				cycles += 2
			}
			instret += 2
			continue

		case xopADDIBNE:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if r[d.rs3&15] != r[d.rs4&15] {
				pc = uint32(d.imm2)
				cycles += 3
			} else {
				pc += 2
				cycles += 2
			}
			instret += 2
			continue

		case xopANDIBNE:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] & uint32(d.imm)
			}
			if r[d.rs3&15] != r[d.rs4&15] {
				pc = uint32(d.imm2)
				cycles += 3
			} else {
				pc += 2
				cycles += 2
			}
			instret += 2
			continue

		case xopSLTIUBNE:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = b2u(r[d.rs1&15] < uint32(d.imm))
			}
			if r[d.rs3&15] != r[d.rs4&15] {
				pc = uint32(d.imm2)
				cycles += 3
			} else {
				pc += 2
				cycles += 2
			}
			instret += 2
			continue

		case xopADDIJAL:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = (pc + 2) * 4
			}
			pc = uint32(d.imm2)
			cycles += 3
			instret += 2
			continue

		// ---- generic sequential pairs (pairOps in fuse.go) ----
		case xopADDISRLI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] >> uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDISUB:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] - r[d.rs4&15]
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDADD:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + r[d.rs4&15]
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSUBADDI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] - r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDILUI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSWLUI:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc, cycles, instret)
				if err := c.busStore(addr, r[d.rd&15]); err != nil {
					return cycles - start, err
				}
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSWADDI:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc, cycles, instret)
				if err := c.busStore(addr, r[d.rd&15]); err != nil {
					return cycles - start, err
				}
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDILW:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			cycles++
			instret++
			addr := r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd2 != 0 {
					r[d.rd2&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+1, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd2 != 0 {
					r[d.rd2&15] = v
				}
			}
			pc += 2
			cycles += 2
			instret++
			continue

		case xopLWADDI:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd != 0 {
					r[d.rd&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd != 0 {
					r[d.rd&15] = v
				}
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			pc += 2
			cycles += 3
			instret += 2
			continue

		case xopLWJAL:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd != 0 {
					r[d.rd&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd != 0 {
					r[d.rd&15] = v
				}
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = (pc + 2) * 4
			}
			pc = uint32(d.imm2)
			cycles += 4
			instret += 2
			continue

		case xopADDIJALR:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			// As in the reference: the jump target is read before the
			// link register is written.
			target := (r[d.rs3&15] + uint32(d.imm2)) / 4
			if d.rd2 != 0 {
				r[d.rd2&15] = (pc + 2) * 4
			}
			pc = target
			cycles += 3
			instret += 2
			continue

		case xopSLLIBNE:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << uint32(d.imm)
			}
			if r[d.rs3&15] != r[d.rs4&15] {
				pc = uint32(d.imm2)
				cycles += 3
			} else {
				pc += 2
				cycles += 2
			}
			instret += 2
			continue

		// For branch-first pairs a taken first branch retires only the
		// one instruction — the second component never executes, exactly
		// as in the reference stream.
		case xopBLTUSUB:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if r[d.rs1&15] < r[d.rs2&15] {
				pc = uint32(d.imm)
				cycles += 2
				instret++
			} else {
				if d.rd2 != 0 {
					r[d.rd2&15] = r[d.rs3&15] - r[d.rs4&15]
				}
				pc += 2
				cycles += 2
				instret += 2
			}
			continue

		case xopORIADDI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] | uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDOR:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] | r[d.rs4&15]
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopORSLLI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] | r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] << uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopORADD:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] | r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + r[d.rs4&15]
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopSLLIADDI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] << uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDSLLI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] << uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDADDI:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopORSUB:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] | r[d.rs2&15]
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] - r[d.rs4&15]
			}
			pc += 2
			cycles += 2
			instret += 2
			continue

		case xopADDIBGE:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if int32(r[d.rs3&15]) >= int32(r[d.rs4&15]) {
				pc = uint32(d.imm2)
				cycles += 3
			} else {
				pc += 2
				cycles += 2
			}
			instret += 2
			continue

		case xopBLTADDI:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if int32(r[d.rs1&15]) < int32(r[d.rs2&15]) {
				pc = uint32(d.imm)
				cycles += 2
				instret++
			} else {
				if d.rd2 != 0 {
					r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
				}
				pc += 2
				cycles += 2
				instret += 2
			}
			continue

		case xopADDLW:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + r[d.rs2&15]
			}
			cycles++
			instret++
			addr := r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd2 != 0 {
					r[d.rd2&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+1, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd2 != 0 {
					r[d.rd2&15] = v
				}
			}
			pc += 2
			cycles += 2
			instret++
			continue

		case xopBEQLW:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if r[d.rs1&15] == r[d.rs2&15] {
				pc = uint32(d.imm)
				cycles += 2
				instret++
				continue
			}
			cycles++
			instret++
			addr := r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd2 != 0 {
					r[d.rd2&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+1, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd2 != 0 {
					r[d.rd2&15] = v
				}
			}
			pc += 2
			cycles += 2
			instret++
			continue

		case xopSWLW:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc, cycles, instret)
				if err := c.busStore(addr, r[d.rd&15]); err != nil {
					return cycles - start, err
				}
			}
			cycles++
			instret++
			addr = r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd2 != 0 {
					r[d.rd2&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+1, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd2 != 0 {
					r[d.rd2&15] = v
				}
			}
			pc += 2
			cycles += 2
			instret++
			continue

		// ---- quad superinstructions (fuse2) ----
		case xqSRLISLLISLLIBNE:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] >> uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] << uint32(d.imm2)
			}
			if d.rd3 != 0 {
				r[d.rd3&15] = r[d.rs5&15] << uint32(d.imm3)
			}
			if r[d.rs7&15] != r[d.rs8&15] {
				pc = uint32(d.imm4)
				cycles += 5
			} else {
				pc += 4
				cycles += 4
			}
			instret += 4
			continue

		case xqADDISWSWSW:
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			cycles++
			instret++
			addr := r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd2&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc+1, cycles, instret)
				if err := c.busStore(addr, r[d.rd2&15]); err != nil {
					return cycles - start, err
				}
			}
			cycles++
			instret++
			addr = r[d.rs5&15] + uint32(d.imm3)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd3&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc+2, cycles, instret)
				if err := c.busStore(addr, r[d.rd3&15]); err != nil {
					return cycles - start, err
				}
			}
			cycles++
			instret++
			addr = r[d.rs7&15] + uint32(d.imm4)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd4&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc+3, cycles, instret)
				if err := c.busStore(addr, r[d.rd4&15]); err != nil {
					return cycles - start, err
				}
			}
			pc += 4
			cycles++
			instret++
			continue

		case xqLWLWLWLW:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd != 0 {
					r[d.rd&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd != 0 {
					r[d.rd&15] = v
				}
			}
			cycles += 2
			instret++
			addr = r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd2 != 0 {
					r[d.rd2&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+1, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd2 != 0 {
					r[d.rd2&15] = v
				}
			}
			cycles += 2
			instret++
			addr = r[d.rs5&15] + uint32(d.imm3)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd3 != 0 {
					r[d.rd3&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+2, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd3 != 0 {
					r[d.rd3&15] = v
				}
			}
			cycles += 2
			instret++
			addr = r[d.rs7&15] + uint32(d.imm4)
			if addr&3 == 0 && addr <= DataBytes-4 {
				if d.rd4 != 0 {
					r[d.rd4&15] = uint32(data[addr]) | uint32(data[addr+1])<<8 |
						uint32(data[addr+2])<<16 | uint32(data[addr+3])<<24
				}
			} else {
				c.flush(pc+3, cycles, instret)
				v, err := c.busLoad(addr)
				if err != nil {
					return cycles - start, err
				}
				if d.rd4 != 0 {
					r[d.rd4&15] = v
				}
			}
			pc += 4
			cycles += 2
			instret++
			continue

		case xqADDIADDIADDIJAL:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if d.rd != 0 {
				r[d.rd&15] = r[d.rs1&15] + uint32(d.imm)
			}
			if d.rd2 != 0 {
				r[d.rd2&15] = r[d.rs3&15] + uint32(d.imm2)
			}
			if d.rd3 != 0 {
				r[d.rd3&15] = r[d.rs5&15] + uint32(d.imm3)
			}
			if d.rd4 != 0 {
				r[d.rd4&15] = (pc + 4) * 4
			}
			pc = uint32(d.imm4)
			cycles += 5
			instret += 4
			continue

		case xqBLTUSUBORIADDI:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			if r[d.rs1&15] < r[d.rs2&15] {
				pc = uint32(d.imm)
				cycles += 2
				instret++
			} else {
				if d.rd2 != 0 {
					r[d.rd2&15] = r[d.rs3&15] - r[d.rs4&15]
				}
				if d.rd3 != 0 {
					r[d.rd3&15] = r[d.rs5&15] | uint32(d.imm3)
				}
				if d.rd4 != 0 {
					r[d.rd4&15] = r[d.rs7&15] + uint32(d.imm4)
				}
				pc += 4
				cycles += 4
				instret += 4
			}
			continue

		case xqSWSWSWLUI:
			addr := r[d.rs1&15] + uint32(d.imm)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc, cycles, instret)
				if err := c.busStore(addr, r[d.rd&15]); err != nil {
					return cycles - start, err
				}
			}
			cycles++
			instret++
			addr = r[d.rs3&15] + uint32(d.imm2)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd2&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc+1, cycles, instret)
				if err := c.busStore(addr, r[d.rd2&15]); err != nil {
					return cycles - start, err
				}
			}
			cycles++
			instret++
			addr = r[d.rs5&15] + uint32(d.imm3)
			if addr&3 == 0 && addr <= DataBytes-4 {
				v := r[d.rd3&15]
				data[addr] = byte(v)
				data[addr+1] = byte(v >> 8)
				data[addr+2] = byte(v >> 16)
				data[addr+3] = byte(v >> 24)
			} else {
				c.flush(pc+2, cycles, instret)
				if err := c.busStore(addr, r[d.rd3&15]); err != nil {
					return cycles - start, err
				}
			}
			if d.rd4 != 0 {
				r[d.rd4&15] = uint32(d.imm4)
			}
			pc += 4
			cycles += 2
			instret += 2
			continue

		case xopIntrin:
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			// The mirror tests its whole cost against the lowered mark,
			// so when it commits, the run after it fits as after any
			// passing checkpoint.
			st := &c.cstate
			st.r, st.data, st.stop = r, data, stop
			if ncy, nin, ok := mirrors[d.rs1].fn(c, st, cycles, instret, uint32(d.imm2), uint32(d.imm3)); ok {
				pc++
				cycles, instret = ncy, nin
				continue
			}
			r[15] = uint32(d.imm2)
			pc = uint32(d.imm)
			cycles += 2
			instret++
			continue

		default: // xopIllegal: the raw out-of-range opcode travels in imm
			if cycles >= stop {
				c.flush(pc, cycles, instret)
				return c.runTail(start, maxCycles)
			}
			c.flush(pc, cycles, instret)
			return cycles - start, fmt.Errorf("%w: %d at pc=%d", ErrBadOpcode, Opcode(d.imm), pc)
		}

		pc++
		cycles++
		instret++
	}
}
