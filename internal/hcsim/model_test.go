package hcsim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The model test drives Reg through a seeded random schedule and holds
// every value it reads against an eager reference kept here: each
// register has a q and a d, writes go to d, and every register commits
// q = d at every tick. Registers are owned by one writer each (a
// component, or the early writer that runs before the components
// evaluate), as Handel-C requires of a register written in parallel
// branches; anything may read anything.

// pair is the payload of the struct registers.
type pair struct {
	a   int32
	b   int64
	tag uint8
}

func (p pair) fold() int64 { return int64(p.a)*3 + p.b*5 + int64(p.tag) }

func pairOf(v, k int64) pair { return pair{a: int32(v), b: v ^ k, tag: uint8(k)} }

// regRef names one register of the model.
type regRef struct {
	isPair bool
	i      int
}

func (r regRef) String() string {
	if r.isPair {
		return fmt.Sprintf("pair%d", r.i)
	}
	return fmt.Sprintf("int%d", r.i)
}

type opKind int

const (
	opSetD     opKind = iota // whole value through SetD
	opD                      // whole value through D
	opPartial                // one field of a pair through D
	opCurThenD               // opPartial with Cur taken first and held
	numOpKinds
)

// op reads src (through Cur if viaCur, else Q), adds k and writes the
// sum to dst.
type op struct {
	kind     opKind
	dst, src regRef
	k        int64
	viaCur   bool
}

// cyclePlan is what happens in one cycle of a run.
type cyclePlan struct {
	early bool     // the early writer writes in this cycle
	host  []op     // written between ticks, before the cycle evaluates
	owned [][]op   // per owner: the components, then the early writer
	reads []regRef // read between ticks, after the cycle's edge
}

// modelState holds one value per register.
type modelState struct {
	ints  []int
	pairs []pair
}

func (m *modelState) read(r regRef) int64 {
	if r.isPair {
		return m.pairs[r.i].fold()
	}
	return int64(m.ints[r.i])
}

func (m *modelState) write(o op, v int64) {
	if !o.dst.isPair {
		m.ints[o.dst.i] = int(v)
		return
	}
	p := &m.pairs[o.dst.i]
	switch {
	case o.kind != opPartial && o.kind != opCurThenD:
		*p = pairOf(v, o.k)
	case o.k&1 == 0:
		p.a = int32(v)
	default:
		p.b = v
	}
}

func (m *modelState) clone() modelState {
	return modelState{ints: append([]int(nil), m.ints...), pairs: append([]pair(nil), m.pairs...)}
}

const (
	modelInts   = 5
	modelPairs  = 4
	modelComps  = 3
	modelCycles = 4000
)

// genPlan builds a seeded schedule: stretches of ticked cycles with
// host writes and reads between ticks, stretches where the early writer
// writes every cycle and nothing is read between ticks, and idle
// stretches where nothing is written or read.
func genPlan(rng *rand.Rand) []cyclePlan {
	var regs []regRef
	for i := 0; i < modelInts; i++ {
		regs = append(regs, regRef{i: i})
	}
	for i := 0; i < modelPairs; i++ {
		regs = append(regs, regRef{isPair: true, i: i})
	}
	// Owner modelComps is the early writer; the first registers cover
	// every owner, the rest are spread at random.
	owner := make(map[regRef]int)
	for i, r := range regs {
		if i <= modelComps {
			owner[r] = i
		} else {
			owner[r] = rng.Intn(modelComps + 1)
		}
	}
	randOp := func(dst regRef) op {
		return op{
			kind:   opKind(rng.Intn(int(numOpKinds))),
			dst:    dst,
			src:    regs[rng.Intn(len(regs))],
			k:      rng.Int63n(1<<20) - 1<<19,
			viaCur: rng.Intn(2) == 0,
		}
	}
	writes := func() int { // 0–3 writes, mostly few
		switch n := rng.Intn(20); {
		case n < 9:
			return 0
		case n < 15:
			return 1
		case n < 18:
			return 2
		default:
			return 3
		}
	}

	plan := make([]cyclePlan, 0, modelCycles)
	for len(plan) < modelCycles {
		kind, n := rng.Intn(3), 1+rng.Intn(20)
		for j := 0; j < n && len(plan) < modelCycles; j++ {
			cp := cyclePlan{early: kind == 1, owned: make([][]op, modelComps+1)}
			if kind == 2 { // idle
				plan = append(plan, cp)
				continue
			}
			if !cp.early || j == 0 {
				for h := rng.Intn(3); h > 0; h-- {
					if rng.Intn(4) == 0 {
						cp.host = append(cp.host, randOp(regs[rng.Intn(len(regs))]))
					}
				}
			}
			for _, r := range regs {
				o := owner[r]
				if o == modelComps && !cp.early {
					continue // the early writer only writes in its stretches
				}
				for w := writes(); w > 0; w-- {
					cp.owned[o] = append(cp.owned[o], randOp(r))
				}
			}
			for o := range cp.owned {
				ops := cp.owned[o]
				rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
			}
			for _, r := range regs {
				if rng.Intn(3) == 0 {
					cp.reads = append(cp.reads, r)
				}
			}
			plan = append(plan, cp)
		}
	}
	return plan
}

// runModel plays the plan on the eager reference and returns the
// latched state visible during each cycle, plus the state after the
// last edge.
func runModel(plan []cyclePlan) []modelState {
	q := modelState{ints: make([]int, modelInts), pairs: make([]pair, modelPairs)}
	d := q.clone()
	states := make([]modelState, 0, len(plan)+1)
	for _, cp := range plan {
		states = append(states, q.clone())
		for _, o := range cp.host {
			d.write(o, q.read(o.src)+o.k)
		}
		// Each register has one writer, so the order owners run in
		// cannot matter; the reference runs them in index order.
		for _, ops := range cp.owned {
			for _, o := range ops {
				d.write(o, q.read(o.src)+o.k)
			}
		}
		q = d.clone() // every register commits at every edge
	}
	return append(states, q)
}

// modelBank is the registers under test.
type modelBank struct {
	ints  []*Reg[int]
	pairs []*Reg[pair]
}

func (b *modelBank) read(r regRef, viaCur bool) int64 {
	switch {
	case r.isPair && viaCur:
		return b.pairs[r.i].Cur().fold()
	case r.isPair:
		return b.pairs[r.i].Q().fold()
	case viaCur:
		return int64(*b.ints[r.i].Cur())
	}
	return int64(b.ints[r.i].Q())
}

// write performs o with value v and returns a non-empty message if
// the register misbehaved while being written; latched is the model's
// value of o.dst in this cycle.
func (b *modelBank) write(o op, v, latched int64) string {
	if !o.dst.isPair {
		r := b.ints[o.dst.i]
		switch o.kind {
		case opSetD:
			r.SetD(int(v))
		case opCurThenD:
			held := r.Cur()
			*r.D() = int(v)
			if int64(*held) != latched {
				return fmt.Sprintf("Cur held across a D write reads %d, latched %d", *held, latched)
			}
		default:
			*r.D() = int(v)
		}
		return ""
	}
	r := b.pairs[o.dst.i]
	var held *pair
	if o.kind == opCurThenD {
		held = r.Cur()
	}
	switch {
	case o.kind == opSetD:
		r.SetD(pairOf(v, o.k))
	case o.kind == opD:
		*r.D() = pairOf(v, o.k)
	case o.k&1 == 0:
		r.D().a = int32(v)
	default:
		r.D().b = v
	}
	if held != nil && held.fold() != latched {
		return fmt.Sprintf("Cur held across a D write reads %d, latched %d", held.fold(), latched)
	}
	return ""
}

// runSim plays the plan on a simulator whose components were added in
// the given order and checks every read against the reference states.
func runSim(t *testing.T, plan []cyclePlan, states []modelState, reverse bool) {
	t.Helper()
	s := NewSim()
	b := &modelBank{}
	for i := 0; i < modelInts; i++ {
		b.ints = append(b.ints, NewReg(s, 0))
	}
	for i := 0; i < modelPairs; i++ {
		b.pairs = append(b.pairs, NewReg(s, pair{}))
	}
	var fail string
	check := func(where string, c uint64, r regRef, got int64) {
		if want := states[c].read(r); got != want && fail == "" {
			fail = fmt.Sprintf("%s, cycle %d: %v reads %d, model %d", where, c, r, got, want)
		}
	}
	// do performs o for owner (-1: the host, between ticks).
	do := func(owner int, o op) {
		c := s.Cycle()
		v := b.read(o.src, o.viaCur)
		where := "host"
		if owner >= 0 {
			where = fmt.Sprintf("owner %d", owner)
		}
		check(where, c, o.src, v)
		if msg := b.write(o, v+o.k, states[c].read(o.dst)); msg != "" && fail == "" {
			fail = fmt.Sprintf("%s, cycle %d: %v: %s", where, c, o.dst, msg)
		}
	}
	runOwner := func(owner int) {
		for _, o := range plan[s.Cycle()].owned[owner] {
			do(owner, o)
		}
	}
	for i := 0; i < modelComps; i++ {
		owner := i
		if reverse {
			owner = modelComps - 1 - i
		}
		s.Add(evalFunc(func() { runOwner(owner) }))
	}

	for c := 0; c < len(plan); {
		for _, o := range plan[c].host {
			do(-1, o)
		}
		n := 1
		for plan[c].early && c+n < len(plan) && plan[c+n].early && len(plan[c+n].host) == 0 {
			n++
		}
		for end := c + n; c < end; c++ {
			runOwner(modelComps)
			s.Tick()
		}
		for i, r := range plan[c-1].reads {
			check("between ticks", uint64(c), r, b.read(r, (c+i)%2 == 0))
		}
		if fail != "" {
			t.Fatalf("reverse=%v: %s", reverse, fail)
		}
	}
	for i := 0; i < modelInts; i++ {
		check("final", uint64(len(plan)), regRef{i: i}, b.read(regRef{i: i}, false))
	}
	for i := 0; i < modelPairs; i++ {
		check("final", uint64(len(plan)), regRef{isPair: true, i: i}, b.read(regRef{isPair: true, i: i}, true))
	}
	if fail != "" {
		t.Fatalf("reverse=%v: %s", reverse, fail)
	}
}

// TestRegMatchesEagerModel holds Reg to the eager q/d reference across
// int and struct registers, components added in both orders, 0–3
// writes per register per cycle, idle stretches, reads between ticks
// and writes made before the components evaluate. Reads go through Q
// and Cur, writes through SetD and D, whole and to one field of a
// struct: Cur must not move when D is written in the same cycle, and a
// write to one field must hold the others.
func TestRegMatchesEagerModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		plan := genPlan(rand.New(rand.NewSource(seed)))
		states := runModel(plan)
		for _, reverse := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/reverse=%v", seed, reverse), func(t *testing.T) {
				runSim(t, plan, states, reverse)
			})
		}
	}
}
