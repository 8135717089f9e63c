// Package hcsim is a small cycle-based hardware simulation kernel with
// Handel-C semantics, used to express (and cycle-count) the FPGA-side
// components of the paper: the five-stage affine pipeline, the video and
// memory controllers, and the top-level par/seq structure of Figure 4.
//
// Two abstractions cover the two kinds of Handel-C code:
//
//   - Component — clocked datapath. Each clock, every component's Eval
//     computes next state from current register outputs, and every
//     register written in the cycle takes its new value at the edge
//     (two-phase simulation, so evaluation order never matters).
//     Registers latch lazily: a write records its cycle, and the first
//     access in a later cycle applies it, so Tick never walks the
//     registers. Only commit hooks (memory write ports, channel
//     rendezvous) run at every edge.
//
//   - Proc — control flow. Handel-C assignments take exactly one clock
//     cycle; par{} branches advance in lockstep; seq{} sequences. Do,
//     Seq, Par, While, For and Delay build resumable one-cycle-stepped
//     state machines equivalent to the paper's Figure 4 code.
//
// Procs are single-use: build a fresh tree per run (While/For take
// factories for their bodies for this reason).
package hcsim

import (
	"fmt"
	"math"
)

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
	s.edge()
}

func (s *Sim) edge() {
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

// RunProc steps a Proc one cycle at a time (alongside any datapath
// components) until it finishes or maxCycles elapse. It returns the
// number of cycles consumed and whether the Proc completed.
func (s *Sim) RunProc(p Proc, maxCycles int) (cycles int, done bool) {
	for i := 0; i < maxCycles; i++ {
		finished := p.step()
		for _, c := range s.comps {
			c.Eval()
		}
		s.edge()
		if finished {
			return i + 1, true
		}
	}
	return maxCycles, false
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

// Proc is a resumable control-flow process; step advances one clock
// cycle and reports completion.
type Proc interface {
	step() bool
}

// doProc executes a function in exactly one cycle.
type doProc struct {
	fn   func()
	done bool
}

func (p *doProc) step() bool {
	if !p.done {
		p.fn()
		p.done = true
	}
	return true
}

// Do returns a one-cycle Proc performing fn — a Handel-C assignment.
func Do(fn func()) Proc { return &doProc{fn: fn} }

// Nop is a one-cycle Proc that does nothing (Handel-C delay).
func Nop() Proc { return Do(func() {}) }

// seqProc runs children one after another.
type seqProc struct {
	ps  []Proc
	idx int
}

// Seq composes Procs sequentially, like a Handel-C seq{} block.
func Seq(ps ...Proc) Proc { return &seqProc{ps: ps} }

func (p *seqProc) step() bool {
	for p.idx < len(p.ps) {
		if p.ps[p.idx].step() {
			p.idx++
			return p.idx == len(p.ps)
		}
		return false
	}
	return true
}

// parProc steps all unfinished children each cycle.
type parProc struct {
	ps   []Proc
	done []bool
	left int
}

// Par composes Procs in lockstep parallel, like a Handel-C par{} block;
// it finishes when the slowest branch finishes.
func Par(ps ...Proc) Proc {
	return &parProc{ps: ps, done: make([]bool, len(ps)), left: len(ps)}
}

func (p *parProc) step() bool {
	for i, child := range p.ps {
		if p.done[i] {
			continue
		}
		if child.step() {
			p.done[i] = true
			p.left--
		}
	}
	return p.left == 0
}

// whileProc re-instantiates its body while the condition holds.
// Condition evaluation itself is combinational (zero cycles), matching
// Handel-C's while.
type whileProc struct {
	cond func() bool
	body func() Proc
	cur  Proc
}

// While loops body() while cond() is true. The body factory is invoked
// once per iteration.
func While(cond func() bool, body func() Proc) Proc {
	return &whileProc{cond: cond, body: body}
}

func (p *whileProc) step() bool {
	if p.cur == nil {
		if !p.cond() {
			return true // zero iterations: finishes within this cycle
		}
		p.cur = p.body()
	}
	if !p.cur.step() {
		return false
	}
	// Body finished this cycle; if the condition still holds the next
	// iteration starts on the next cycle.
	p.cur = nil
	return !p.cond()
}

// For runs body(i) for i in [0, n), one iteration after another.
func For(n int, body func(i int) Proc) Proc {
	i := 0
	return While(func() bool { return i < n }, func() Proc {
		p := body(i)
		i++
		return p
	})
}

// Delay waits n cycles.
func Delay(n int) Proc {
	if n < 0 {
		panic(fmt.Sprintf("hcsim: negative delay %d", n))
	}
	return For(n, func(int) Proc { return Nop() })
}

// WaitUntil idles one cycle at a time until cond() holds (checked at
// the start of each cycle; if it already holds, it still consumes one
// cycle, like a Handel-C single-cycle poll).
func WaitUntil(cond func() bool) Proc {
	done := false
	return While(func() bool { return !done }, func() Proc {
		return Do(func() {
			if cond() {
				done = true
			}
		})
	})
}
