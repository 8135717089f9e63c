package sabre

import "slices"

// This file is the binding between the fast engine (runfast.go) and the
// generated whole-program kernels (kernels_gen.go). Two bundled
// programs have a kernel: the SoftFloat Kalman filter and the
// fixed-point boresight estimator. A kernel is native straight-line Go
// — registers addressed with constant indices, cycle/instret charged in
// per-block constants, control flow lowered to gotos — so a run of
// either program is one call.
//
// A kernel's code stops where the program's SoftFloat library starts.
// A call into the library runs the routine's native mirror
// (intrinsics.go); when the mirror declines, at a budget boundary or
// with a stack outside its window, the kernel makes the call and
// exits with pc at the routine, and the interpreter runs the library's
// words, as it does after any other stOK exit.
//
// Once per loaded program, predecode compares program memory word for
// word with each kernel's program (matchKernel). When one matches,
// RunFast calls the kernel on entry if pc is one of the kernel's
// leaders and the budget strictly exceeds the leader's worst-case
// cycles to its first budget check. Every other entry pc runs on the
// interpreter; correctness never depends on a kernel binding.
//
// Architectural exactness follows the interpreter's discipline:
//
//   - Budget: kernels re-check the budget at every leader and loop
//     head. When a check trips, the counters are flushed at an
//     instruction boundary and the endgame is handed to the reference
//     single-step loop, whose per-instruction check is the semantics
//     all engines must honour.
//   - MMIO and faults: a load/store that leaves the RAM window flushes
//     pc/cycles/instret to the exact mid-block values the reference
//     interpreter would show (instruction's own pc, counters before it
//     retires) before touching the bus; faulting instructions do not
//     retire.

// Kernel exit statuses.
const (
	stOK      = iota // left the kernel's code: st.pc is where the interpreter resumes
	stHalt           // HALT retired; st holds the final counters
	stErr            // fault: CPU flushed at the fault point, st.err set
	stBudget         // budget boundary inside a kernel; st exact at a block head
	stNoEntry        // kernel entered at a pc that is not a leader (defensive)
)

// cst is the state a kernel or a native mirror runs on: the
// architectural counters live here between flushes, stop is the
// absolute cycle mark the budget checks test against, and sf is the
// mirrors' scratch record. It lives on the CPU (CPU.cstate), so passing
// its address allocates nothing.
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

// genKernel is one generated whole-program kernel: the program words
// it was generated from, library included, its leaders (the entry pcs
// it accepts) with the worst-case cycles from each to its first budget
// check, and the kernel function.
type genKernel struct {
	fn      func(c *CPU, st *cst) int
	words   []uint32
	leaders map[uint32]uint32
}

// matchKernel returns the generated kernel whose program opens prog,
// or nil. A kernel addresses its program at absolute pcs and passes
// its library's base to the mirrors, so only a raw-word match of every
// word from word 0 binds it.
func matchKernel(prog []uint32) *genKernel {
	for _, k := range kernels {
		if len(k.words) <= len(prog) && slices.Equal(k.words, prog[:len(k.words)]) {
			return k
		}
	}
	return nil
}

// loadSlow is the out-of-RAM load path of kernel code: flush the exact
// mid-block state (instruction pc, counters before it retires), then
// take the shared bus path. Reports ok=false with st.err set on a
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
