// Package hcsim is a small cycle-based hardware simulation kernel with
// Handel-C semantics, used to express (and cycle-count) the FPGA-side
// components of the paper: the five-stage affine pipeline, the video and
// memory controllers, and the whole chip of Figure 4.
//
// Every piece of hardware is a Component on one clock. Each clock, every
// component's Eval computes next state from current register outputs,
// and every register written in the cycle takes its new value at the
// edge (two-phase simulation, so evaluation order never matters). That
// is what Handel-C's par{} means for branches that share a clock, so
// Figure 4's top-level par{} is modelled as its branches' components
// evaluated every clock, and its seq{} loop as one component that keeps
// the loop's position in its own state. Registers latch lazily: a write
// records its cycle, and the first access in a later cycle applies it,
// so Tick never walks the registers. Only commit hooks (memory write
// ports) run at every edge.
package hcsim

import "math"

// Component is clocked hardware: Eval computes next state from current
// (pre-edge) register values each cycle.
type Component interface{ Eval() }

// Sim is a single-clock-domain simulator.
type Sim struct {
	comps []Component
	hooks []func()
	cycle uint64
}

// NewSim returns an empty simulator at cycle 0.
func NewSim() *Sim { return &Sim{} }

// Cycle returns the number of completed clock cycles.
func (s *Sim) Cycle() uint64 { return s.cycle }

// Add registers a datapath component.
func (s *Sim) Add(c Component) { s.comps = append(s.comps, c) }

// Tick advances one clock: all components evaluate against current
// register outputs, then the edge runs the commit hooks and ends the
// cycle, which makes every register write of the cycle visible.
func (s *Sim) Tick() {
	for _, c := range s.comps {
		c.Eval()
	}
	for _, h := range s.hooks {
		h()
	}
	s.cycle++
}

// Run advances n clock cycles.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Tick()
	}
}

// never is the due cycle of a register with no write pending.
const never = math.MaxUint64

// Reg is a clocked register: reads (Q, Cur) see the value latched at
// the last clock edge; writes (SetD, D) take effect at the next edge.
//
// A write in cycle c goes to the next-state slot and records c + 1 as
// the cycle the slot becomes the latched value; the first access from
// that cycle on copies it over. Between writes the slot equals the
// latched value, which is what lets D hand out a slot that already
// holds every field a partial write leaves alone.
type Reg[T any] struct {
	q, d T
	due  uint64 // cycle from which d is latched; never if no write is pending
	sim  *Sim
}

// NewReg creates a register on s's clock, initialised to init.
func NewReg[T any](s *Sim, init T) *Reg[T] {
	return &Reg[T]{q: init, d: init, due: never, sim: s}
}

// latch applies a write made in an earlier cycle.
func (r *Reg[T]) latch() {
	if r.due <= r.sim.cycle {
		r.q = r.d
		r.due = never
	}
}

// Q returns the current (latched) value.
func (r *Reg[T]) Q() T {
	r.latch()
	return r.q
}

// Cur returns the latched value in place, for reading without a copy.
// Writes through D in the same cycle do not change it, and it never
// aliases D's slot. It must not be written through, and holds only
// until the cycle ends.
func (r *Reg[T]) Cur() *T {
	r.latch()
	return &r.q
}

// D returns the next-state slot in place: what it holds at the next
// clock edge becomes the latched value. It starts the cycle equal to
// the latched value, so a write to some fields holds the others, as a
// Handel-C register does; several writes in a cycle leave the last.
func (r *Reg[T]) D() *T {
	r.latch()
	r.due = r.sim.cycle + 1
	return &r.d
}

// SetD schedules v to be latched at the next clock edge.
func (r *Reg[T]) SetD(v T) { *r.D() = v }

// AddCommitHook registers fn to run at every clock edge, after every
// component has evaluated — for components with bulk state such as
// memories, whose writes must land synchronously. A register read in
// a hook still shows its pre-edge value.
func AddCommitHook(s *Sim, fn func()) {
	s.hooks = append(s.hooks, fn)
}
