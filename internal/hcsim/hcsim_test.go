package hcsim

import "testing"

type evalFunc func()

func (f evalFunc) Eval() { f() }

func TestRegisterTwoPhase(t *testing.T) {
	// A register chain a -> b must delay by exactly one cycle per stage
	// regardless of evaluation order.
	s := NewSim()
	a := NewReg(s, 0)
	b := NewReg(s, 0)
	// b samples a; a increments. Added in "wrong" order on purpose.
	s.Add(evalFunc(func() { b.SetD(a.Q()) }))
	s.Add(evalFunc(func() { a.SetD(a.Q() + 1) }))
	s.Tick() // a: 0->1, b latches old a = 0
	if a.Q() != 1 || b.Q() != 0 {
		t.Fatalf("after tick 1: a=%d b=%d", a.Q(), b.Q())
	}
	s.Tick()
	if a.Q() != 2 || b.Q() != 1 {
		t.Fatalf("after tick 2: a=%d b=%d", a.Q(), b.Q())
	}
}

func TestRegEvalOrderIndependence(t *testing.T) {
	// Same chain with components added in the other order gives the
	// same trace.
	build := func(reverse bool) (func() (int, int), *Sim) {
		s := NewSim()
		a := NewReg(s, 0)
		b := NewReg(s, 0)
		inc := evalFunc(func() { a.SetD(a.Q() + 1) })
		cp := evalFunc(func() { b.SetD(a.Q()) })
		if reverse {
			s.Add(cp)
			s.Add(inc)
		} else {
			s.Add(inc)
			s.Add(cp)
		}
		return func() (int, int) { return a.Q(), b.Q() }, s
	}
	read1, s1 := build(false)
	read2, s2 := build(true)
	for i := 0; i < 10; i++ {
		s1.Tick()
		s2.Tick()
		a1, b1 := read1()
		a2, b2 := read2()
		if a1 != a2 || b1 != b2 {
			t.Fatalf("cycle %d: (%d,%d) vs (%d,%d)", i, a1, b1, a2, b2)
		}
	}
}

func TestCommitHookSeesPreEdgeRegisters(t *testing.T) {
	// A hook runs at the edge that latches the cycle's writes, and sees
	// the values from before it, whichever was created first.
	for _, hookFirst := range []bool{false, true} {
		s := NewSim()
		var seen []int
		var r *Reg[int]
		hook := func() { seen = append(seen, r.Q()) }
		if hookFirst {
			AddCommitHook(s, hook)
		}
		r = NewReg(s, 0)
		if !hookFirst {
			AddCommitHook(s, hook)
		}
		s.Add(evalFunc(func() { r.SetD(r.Q() + 1) }))
		s.Run(3)
		if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 || r.Q() != 3 {
			t.Fatalf("hookFirst=%v: hook saw %v, register ends at %d", hookFirst, seen, r.Q())
		}
	}
}

func TestSimRunAndCycleCount(t *testing.T) {
	s := NewSim()
	s.Run(42)
	if s.Cycle() != 42 {
		t.Fatalf("Cycle = %d", s.Cycle())
	}
}

func BenchmarkTickPipeline(b *testing.B) {
	s := NewSim()
	regs := make([]*Reg[int], 5)
	for i := range regs {
		regs[i] = NewReg(s, 0)
	}
	s.Add(evalFunc(func() {
		regs[0].SetD(regs[0].Q() + 1)
		for i := 1; i < len(regs); i++ {
			regs[i].SetD(regs[i-1].Q())
		}
	}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}
