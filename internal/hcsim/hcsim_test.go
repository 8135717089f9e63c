package hcsim

import "testing"

func TestDoTakesOneCycle(t *testing.T) {
	s := NewSim()
	ran := false
	cycles, done := s.RunProc(Do(func() { ran = true }), 10)
	if !done || cycles != 1 || !ran {
		t.Fatalf("Do: cycles=%d done=%v ran=%v", cycles, done, ran)
	}
}

func TestSeqCycleCount(t *testing.T) {
	s := NewSim()
	order := []int{}
	p := Seq(
		Do(func() { order = append(order, 1) }),
		Do(func() { order = append(order, 2) }),
		Do(func() { order = append(order, 3) }),
	)
	cycles, done := s.RunProc(p, 10)
	if !done || cycles != 3 {
		t.Fatalf("Seq of 3: cycles=%d done=%v", cycles, done)
	}
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestParLockstep(t *testing.T) {
	s := NewSim()
	var aCycles, bCycles []uint64
	p := Par(
		Seq(
			Do(func() { aCycles = append(aCycles, s.Cycle()) }),
			Do(func() { aCycles = append(aCycles, s.Cycle()) }),
		),
		Seq(
			Do(func() { bCycles = append(bCycles, s.Cycle()) }),
			Do(func() { bCycles = append(bCycles, s.Cycle()) }),
			Do(func() { bCycles = append(bCycles, s.Cycle()) }),
		),
	)
	cycles, done := s.RunProc(p, 10)
	// Par finishes with the slowest branch: 3 cycles.
	if !done || cycles != 3 {
		t.Fatalf("Par: cycles=%d done=%v", cycles, done)
	}
	// Branches ran in lockstep: same cycle numbers for the first two.
	if aCycles[0] != bCycles[0] || aCycles[1] != bCycles[1] {
		t.Fatalf("branches not lockstep: %v vs %v", aCycles, bCycles)
	}
}

func TestWhileLoopCount(t *testing.T) {
	s := NewSim()
	i := 0
	p := While(func() bool { return i < 5 }, func() Proc {
		return Do(func() { i++ })
	})
	cycles, done := s.RunProc(p, 100)
	if !done || i != 5 {
		t.Fatalf("While: i=%d done=%v", i, done)
	}
	// One body cycle per iteration.
	if cycles != 5 {
		t.Fatalf("While cycles = %d, want 5", cycles)
	}
}

func TestWhileZeroIterations(t *testing.T) {
	s := NewSim()
	p := While(func() bool { return false }, func() Proc { return Nop() })
	cycles, done := s.RunProc(p, 10)
	if !done || cycles != 1 {
		t.Fatalf("zero-iteration while: cycles=%d done=%v", cycles, done)
	}
}

func TestForIndices(t *testing.T) {
	s := NewSim()
	var seen []int
	cycles, done := s.RunProc(For(4, func(i int) Proc {
		return Do(func() { seen = append(seen, i) })
	}), 100)
	if !done || cycles != 4 {
		t.Fatalf("For: cycles=%d done=%v", cycles, done)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("seen = %v", seen)
		}
	}
}

func TestDelay(t *testing.T) {
	s := NewSim()
	cycles, done := s.RunProc(Delay(7), 100)
	if !done || cycles != 7 {
		t.Fatalf("Delay(7): cycles=%d done=%v", cycles, done)
	}
}

func TestDelayNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay accepted")
		}
	}()
	Delay(-1)
}

func TestWaitUntil(t *testing.T) {
	s := NewSim()
	counter := NewReg(s, 0)
	s.Add(evalFunc(func() { counter.SetD(counter.Q() + 1) }))
	p := WaitUntil(func() bool { return counter.Q() >= 5 })
	cycles, done := s.RunProc(p, 100)
	if !done {
		t.Fatal("WaitUntil never finished")
	}
	if cycles < 5 || cycles > 7 {
		t.Fatalf("WaitUntil cycles = %d", cycles)
	}
}

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

func TestRunProcTimeout(t *testing.T) {
	s := NewSim()
	p := While(func() bool { return true }, func() Proc { return Nop() })
	cycles, done := s.RunProc(p, 50)
	if done || cycles != 50 {
		t.Fatalf("infinite loop: cycles=%d done=%v", cycles, done)
	}
}

func TestNestedParSeq(t *testing.T) {
	// par{ seq{a,b}, seq{c} } followed by d: Figure 4's structure.
	s := NewSim()
	var trace []string
	log := func(name string) Proc {
		return Do(func() { trace = append(trace, name) })
	}
	p := Seq(
		Par(
			Seq(log("a"), log("b")),
			log("c"),
		),
		log("d"),
	)
	cycles, done := s.RunProc(p, 10)
	if !done || cycles != 3 {
		t.Fatalf("cycles=%d done=%v trace=%v", cycles, done, trace)
	}
	// a and c in cycle 1, b in cycle 2, d in cycle 3.
	if trace[len(trace)-1] != "d" {
		t.Fatalf("trace = %v", trace)
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
