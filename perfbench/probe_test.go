package main

import (
	"testing"
	"time"
)

// TestProbeUnitsRepeat checks that every probe unit does the same work:
// a unit starts from the probe's initial state, not from where the last
// one ended, so its result repeats.
func TestProbeUnitsRepeat(t *testing.T) {
	start := time.Now()
	p := newProbe(func() time.Duration { return time.Since(start) })
	p.startSlice()
	p.unit()
	first := p.sink
	for i := 2; i <= 5; i++ {
		p.unit()
		if p.sink != uint64(i)*first {
			t.Fatalf("after %d units the probe's sink is %d, want %d", i, p.sink, uint64(i)*first)
		}
	}
	if p.n[0] != 5 || p.ns[0] <= 0 {
		t.Fatalf("slice totals: %d units in %v ns, want 5 units in a positive time", p.n[0], p.ns[0])
	}
}
