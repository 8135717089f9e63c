package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// probe is a fixed piece of CPU work that belongs to the benchmark, not
// to the program under test: a table-dispatched integer interpreter, a
// closure-dispatched one, and small float64 matrix products. It
// allocates nothing and calls nothing of the program, so its rate
// measures only how fast the host runs this process at the time. On a
// shared host that speed moves by up to 2x, over seconds to minutes, as
// other tenants load the cores, and the embedded figures move with it.
// The embedded phase therefore runs probe units between its program
// runs and frames, and each slice's embedded figures are divided by the
// host's speed in that slice (embedded.mips, embedded.framesPerSec).
// Set-up runs on every core, so each set-up round is scaled by probe
// windows on every core just before and just after it (hostSpeed).
type probe struct {
	mem0     [1 << 12]uint32
	mem      [1 << 12]uint32
	code     []probeOp
	fns      []func(*probe, uint32) uint32
	a0, a, b [6][6]float64
	c        [6][6]float64
	sink     uint64

	clock func() time.Duration // the clock of the figures the probe scales
	ns    []float64            // per timed slice: time of the probe units
	n     []int                // per timed slice: probe units
}

type probeOp struct {
	op   uint8
	k    uint32
	addr uint32
}

// probeRefNs is the reference host time of one probe unit: the scaled
// figures are those of a host that runs a unit this fast. It is a round
// figure near a unit's time on a 2-vCPU Intel Xeon (Sapphire Rapids)
// VM, so the scaled figures read close to that VM's unscaled ones.
const probeRefNs = 70e3

// newProbe returns a probe that times its units with clock.
func newProbe(clock func() time.Duration) *probe {
	p := &probe{clock: clock}
	x := uint32(2463534242)
	next := func() uint32 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
	for i := range p.mem0 {
		p.mem0[i] = next()
	}
	for i := 0; i < 64; i++ {
		p.code = append(p.code, probeOp{op: uint8(next() % 6), k: next() | 1, addr: next() % uint32(len(p.mem))})
	}
	p.fns = []func(*probe, uint32) uint32{
		func(p *probe, r uint32) uint32 { return r + p.mem[r&(1<<12-1)] },
		func(p *probe, r uint32) uint32 { return r ^ r<<7 },
		func(p *probe, r uint32) uint32 { p.mem[r>>20] = r; return r * 2654435761 },
		func(p *probe, r uint32) uint32 { return r>>3 | r<<29 },
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			p.a0[i][j] = float64(i+1) / float64(j+7)
			p.b[i][j] = math.Sqrt(float64(i*6 + j + 1))
		}
	}
	return p
}

// unit runs one probe unit, 50–100 µs, and returns its time. Every
// unit starts from the same state, so every unit does the same work.
func (p *probe) unit() time.Duration {
	t0 := p.clock()
	p.mem, p.a = p.mem0, p.a0
	var r uint32 = 1
	for pass := 0; pass < 60; pass++ {
		// Table-dispatched interpreter.
		for i := range p.code {
			in := &p.code[i]
			switch in.op {
			case 0:
				r += p.mem[in.addr] ^ in.k
			case 1:
				r = r*in.k + 1
			case 2:
				p.mem[in.addr] = r
			case 3:
				if r&1 == 0 {
					r >>= 1
				} else {
					r = r*3 + 1
				}
			case 4:
				r ^= p.mem[(r^in.addr)&(1<<12-1)]
			default:
				r = r<<5 | r>>27
			}
		}
		// Closure-dispatched interpreter.
		for i := 0; i < 64; i++ {
			r = p.fns[(r>>8)&3](p, r)
		}
		// Float64 matrix product and normalisation.
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				var s float64
				for k := 0; k < 6; k++ {
					s += p.a[i][k] * p.b[k][j]
				}
				p.c[i][j] = s
			}
		}
		d := 1 / (1 + math.Abs(p.c[pass%6][r%6]))
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				p.a[i][j] = p.c[i][j]*d + float64(r&7)*1e-3
			}
		}
	}
	p.sink += uint64(r)
	d := p.clock() - t0
	p.ns[len(p.ns)-1] += float64(d)
	p.n[len(p.n)-1]++
	return d
}

// startSlice opens the per-slice totals for a new timed slice.
func (p *probe) startSlice() {
	p.ns = append(p.ns, 0)
	p.n = append(p.n, 0)
}

// speed is the host's speed in slice k, relative to the reference: the
// reference time of a probe unit over the time it took.
func (p *probe) speed(k int) float64 {
	if k >= len(p.n) || p.n[k] == 0 {
		return math.NaN()
	}
	return probeRefNs / (p.ns[k] / float64(p.n[k]))
}

// probeWindow is how long hostSpeed runs the probe.
const probeWindow = 100 * time.Millisecond

// hostSpeed runs probe units on every probe of ps at once, one
// goroutine each, for probeWindow, and returns their mean speed in the
// window. It collects garbage first, so that a collection the program
// left running does not slow the probe.
func hostSpeed(ps []*probe) float64 {
	runtime.GC()
	end := time.Now().Add(probeWindow)
	var wg sync.WaitGroup
	for _, p := range ps {
		p.startSlice()
		wg.Add(1)
		go func(p *probe) {
			defer wg.Done()
			for {
				p.unit()
				if !time.Now().Before(end) {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	var sum float64
	for _, p := range ps {
		sum += p.speed(len(p.n) - 1)
	}
	return sum / float64(len(ps))
}
