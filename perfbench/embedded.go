package main

import (
	"bytes"
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"

	"boresight/internal/affine"
	"boresight/internal/fixed"
	"boresight/internal/fxcore"
	"boresight/internal/hcsim"
	"boresight/internal/rc200"
	"boresight/internal/sabre"
	"boresight/internal/video"
)

// Engine slots: the compiled engine, and the zero Engine that
// sabre.New() gives — the one RunKalman, RunFxBoresight, RunBatch and
// the CLIs use.
const (
	slotCompiled = iota
	slotDefault
	numSlots
)

var (
	slotEngine = [numSlots]sabre.Engine{sabre.EngineCompiled, sabre.Engine(0)}
	slotName   = [numSlots]string{"compiled", "default"}
)

// region is a span of data memory a program writes its results to.
type region struct{ addr, n uint32 }

// refRun is a program's reference-engine outcome on one input set.
type refRun struct {
	cycles, instret uint64
	out             []byte
}

// program is one Sabre program under test with its seeded input sets.
type program struct {
	name, class string
	assemble    func() (*sabre.Program, error)
	load        func(c *sabre.CPU, input int)
	inputs      int
	budget      uint64
	updates     int // filter updates (or loop iterations) per run
	regions     []region
	// compiledReps is how many runs a round makes on the compiled
	// engine: the short programs repeat, so that each class gets a
	// comparable share of host time to measure.
	compiledReps int

	words      []uint32
	cpu        [numSlots]*sabre.CPU
	ref        []refRun
	assembleNs []float64           // per setup round
	firstNs    [numSlots][]float64 // first Run minus second, per setup round
	// Per timed slice: runs, instructions retired and host time of Run.
	runs  [numSlots][]int
	instr [numSlots][]float64
	ns    [numSlots][]float64
}

const inputSets = 4

func newPrograms(seed int64) []*program {
	kal := genKalmanInputs(seed, inputSets)
	fx := genFxInputs(seed, inputSets)
	ip := genIntProgram(seed, inputSets)
	fp := genFloatProgram(seed, inputSets)
	fxCfg := fxcore.DefaultConfig()
	return []*program{
		{
			name: "kalman", class: "kalman", assemble: sabre.KalmanProgram, inputs: inputSets,
			load: func(c *sabre.CPU, i int) {
				in := kal[i]
				sabre.SetKalmanInputs(c, in.q, in.r, in.p0, in.x0, in.z)
			},
			budget: sabre.KalmanRunBudget(kalmanUpdates), updates: kalmanUpdates,
			regions:      []region{{0, 0x18}, {0x8000, 4 * kalmanUpdates}},
			compiledReps: 8,
		},
		{
			name: "fx", class: "fx", assemble: sabre.FxBoresightProgram, inputs: inputSets,
			load: func(c *sabre.CPU, i int) {
				sabre.LoadFxBoresightInputs(c, fxCfg, 0.01, fx[i])
			},
			budget: sabre.FxBoresightRunBudget(fxEpochs), updates: fxEpochs,
			regions:      []region{{0, 0x3C}, {0x8000, 12 * fxEpochs}},
			compiledReps: 2,
		},
		{
			name: "runtime.int", class: "runtime", inputs: inputSets,
			assemble: func() (*sabre.Program, error) { return sabre.Assemble(ip.src) },
			load: func(c *sabre.CPU, i int) {
				c.StoreWord(0, intSamples)
				for k, v := range ip.coefs {
					c.StoreWord(uint32(intCoefBase+4*k), uint32(v))
				}
				for k, v := range ip.inputs[i] {
					c.StoreWord(uint32(intInBase+4*k), uint32(v))
				}
			},
			budget: 400 * intSamples, updates: intSamples,
			regions:      []region{{4, 4}, {intOutBase, 4 * intSamples}},
			compiledReps: 1,
		},
		{
			name: "runtime.float", class: "runtime", inputs: inputSets,
			assemble: func() (*sabre.Program, error) { return sabre.Assemble(fp.src + sabre.Library()) },
			load: func(c *sabre.CPU, i int) {
				c.StoreWord(0, floatSamples)
				c.StoreWord(8, math.Float32bits(fp.y0))
				c.StoreWord(16, math.Float32bits(fp.b0))
				c.StoreWord(20, math.Float32bits(fp.a1))
				c.StoreWord(24, math.Float32bits(fp.a2))
				for k, v := range fp.inputs[i] {
					c.StoreWord(uint32(floatInBase+4*k), math.Float32bits(v))
				}
			},
			budget: 20000 * floatSamples, updates: floatSamples,
			regions:      []region{{floatOutBase, 8 * floatSamples}},
			compiledReps: 1,
		},
	}
}

// readOut concatenates the program's result regions.
func (p *program) readOut(c *sabre.CPU, dst []byte) []byte {
	for _, r := range p.regions {
		dst = append(dst, c.Data[r.addr:r.addr+r.n]...)
	}
	return dst
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadClock reads the CPU time of the calling OS thread. The embedded
// path measures in it rather than in wall time: it leaves out the time
// the thread did not run, above all the time the hypervisor took the
// vCPU away (steal), which on the development VM reached 25–30% of the
// CPU time during contended runs and came in bursts of milliseconds.
// main locks the benchmark's goroutine to its thread, so every reading
// is of the same thread.
func threadClock() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// threadTime is threadClock for the timed paths; setupEmbedded has
// already checked that the clock works.
func threadTime() time.Duration {
	t, _ := threadClock()
	return t
}

// runOnce loads input i, resets and runs; it returns the thread CPU
// time of Run alone.
func (p *program) runOnce(c *sabre.CPU, i int) (time.Duration, error) {
	p.load(c, i)
	c.Reset()
	t0 := threadTime()
	_, err := c.Run(p.budget)
	d := threadTime() - t0
	if err == nil && !c.Halted {
		err = fmt.Errorf("%s did not halt", p.name)
	}
	return d, err
}

// embedded is the embedded path: the Sabre programs on both engines and
// the clocked QVGA affine pipeline.
type embedded struct {
	progs []*program
	vid   videoInput
	sim   *hcsim.Sim
	pipe  *affine.Pipeline
	disp  *rc200.Display
	want  uint32 // expected corrected-frame checksum

	probe       *probe
	frameNs     []float64 // per timed slice
	frameN      []int     // frames per timed slice
	frameCycles []float64
	runs        int // program runs, every engine
	badRuns     int // runs off the reference cycles/instret or faulting
	frames      int
	badFrames   int
	runErr      error
}

// setupEmbedded is the embedded set-up that set-up time measures:
// assemble every program, load it on a fresh CPU per engine, run it
// there (the first run pays translation or predecode), render the scene
// and build the pipeline.
func setupEmbedded(progs []*program, seed int64, tc *tracer) (*embedded, error) {
	if _, err := threadClock(); err != nil {
		return nil, err
	}
	e := &embedded{progs: progs, probe: newProbe(threadTime)}
	for pi, p := range progs {
		req := int64(reqEmbedded + pi)
		t0 := time.Now()
		prog, err := p.assemble()
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", p.name, err)
		}
		t1 := time.Now()
		p.assembleNs = append(p.assembleNs, float64(t1.Sub(t0)))
		tc.add("sabre.assemble", -1, req, t0, t1, 1)
		p.words = prog.Words
		for s := 0; s < numSlots; s++ {
			t0 := time.Now()
			c := sabre.New()
			c.Engine = slotEngine[s]
			if err := c.LoadProgram(p.words); err != nil {
				return nil, err
			}
			t1 := time.Now()
			tc.add("sabre.load_program", -1, req, t0, t1, 1)
			d, err := p.runOnce(c, 0)
			if err != nil {
				return nil, fmt.Errorf("%s first run on %s: %w", p.name, slotName[s], err)
			}
			tc.addDur("sabre.first_run."+slotName[s], -1, req, t1, d, 1)
			// A second run right away gives the steady cost under the
			// same conditions, which the first run's extra work is
			// measured against.
			d2, err := p.runOnce(c, 0)
			if err != nil {
				return nil, fmt.Errorf("%s second run on %s: %w", p.name, slotName[s], err)
			}
			p.firstNs[s] = append(p.firstNs[s], float64(d-d2))
			p.cpu[s] = c
		}
	}
	e.vid = genVideo(seed)
	e.sim = hcsim.NewSim()
	ram := rc200.NewSRAM(e.sim)
	ram.LoadFrame(e.vid.distorted)
	e.disp = rc200.NewDisplay(frameW, frameH)
	lut := fixed.NewTrig(1024, fixed.TrigFrac)
	e.pipe = affine.NewPipeline(e.sim, lut, ram, e.disp, frameW, frameH)
	idx, tx, ty := affine.ControlFromParams(lut, e.vid.corr)
	e.pipe.SetControl(idx, tx, ty)
	e.sim.Tick()
	return e, nil
}

// prepareChecks computes the reference outcomes the timed phase and the
// output check compare against: every (program, input) pair on
// sabre.EngineRef, and the corrected frame from the straight-line
// fixed-point transform.
func (e *embedded) prepareChecks() error {
	for _, p := range e.progs {
		p.ref = p.ref[:0]
		for i := 0; i < p.inputs; i++ {
			c := sabre.New()
			c.Engine = sabre.EngineRef
			if err := c.LoadProgram(p.words); err != nil {
				return err
			}
			if _, err := p.runOnce(c, i); err != nil {
				return fmt.Errorf("%s input %d on the reference engine: %w", p.name, i, err)
			}
			p.ref = append(p.ref, refRun{cycles: c.Cycles, instret: c.Instret, out: p.readOut(c, nil)})
		}
	}
	ft := affine.NewFixedTransformer(fixed.NewTrig(1024, fixed.TrigFrac))
	dst := video.NewFrame(frameW, frameH)
	ft.TransformInto(dst, e.vid.distorted, e.vid.corr, 1)
	e.want = dst.Checksum()
	return nil
}

// frame corrects one frame on the clocked pipeline and checks it.
func (e *embedded) frame() time.Duration {
	c0 := e.sim.Cycle()
	t0 := threadTime()
	e.pipe.Start()
	e.sim.Tick()
	for e.pipe.Busy() {
		e.sim.Tick()
	}
	d := threadTime() - t0
	e.frameNs[len(e.frameNs)-1] += float64(d)
	e.frameN[len(e.frameN)-1]++
	e.frameCycles = append(e.frameCycles, float64(e.sim.Cycle()-c0))
	e.frames++
	if e.disp.Frame.Checksum() != e.want {
		e.badFrames++
	}
	return d
}

// round runs every program once on the default engine and
// compiledReps times on the compiled one, cycling input sets.
func (e *embedded) round(k int) time.Duration {
	var total time.Duration
	for _, p := range e.progs {
		for s := 0; s < numSlots; s++ {
			reps := 1
			if s == slotCompiled {
				reps = p.compiledReps
			}
			for r := 0; r < reps; r++ {
				total += e.runChecked(p, s, (k*reps+r)%p.inputs)
			}
		}
	}
	return total
}

// runChecked runs p on input i on an engine, checks cycles and instret
// against the reference engine, and counts a good run in the slice's
// totals. It returns the host time of Run.
func (e *embedded) runChecked(p *program, s, i int) time.Duration {
	c := p.cpu[s]
	d, err := p.runOnce(c, i)
	e.runs++
	if err != nil || c.Cycles != p.ref[i].cycles || c.Instret != p.ref[i].instret {
		e.badRuns++
		if e.runErr == nil {
			e.runErr = fmt.Errorf("%s input %d on %s: err=%v cycles=%d want %d",
				p.name, i, slotName[s], err, c.Cycles, p.ref[i].cycles)
		}
		return d
	}
	last := len(p.ns[s]) - 1
	p.runs[s][last]++
	p.instr[s][last] += float64(c.Instret)
	p.ns[s][last] += float64(d)
	return d
}

// videoShare is the share of the embedded timed phase spent correcting
// frames; the rest runs programs.
const videoShare = 0.35

// probeShare is the share of the embedded timed phase spent on the
// host-speed probe; every slice starts with a probe unit.
const probeShare = 0.1

// run is one timed embedded slice: program rounds, pipeline frames and
// probe units interleaved so that box noise falls on all of them alike.
// Every run and frame counts in the slice's totals.
func (e *embedded) run(d time.Duration) {
	for _, p := range e.progs {
		for s := 0; s < numSlots; s++ {
			p.runs[s] = append(p.runs[s], 0)
			p.instr[s] = append(p.instr[s], 0)
			p.ns[s] = append(p.ns[s], 0)
		}
	}
	e.frameNs = append(e.frameNs, 0)
	e.frameN = append(e.frameN, 0)
	e.probe.startSlice()
	deadline := time.Now().Add(d)
	var progT, vidT, probeT time.Duration
	for k := 0; time.Now().Before(deadline); {
		if float64(probeT) <= probeShare*float64(progT+vidT+probeT) {
			probeT += e.probe.unit()
		} else if float64(vidT) < videoShare*float64(progT+vidT) {
			vidT += e.frame()
		} else {
			progT += e.round(k)
			k++
		}
	}
}

// check re-runs every (program, input) pair on both engines and
// compares cycles, instret and output memory with the reference engine.
func (e *embedded) check() (checked, mismatched int) {
	var out []byte
	for _, p := range e.progs {
		for i := 0; i < p.inputs; i++ {
			for s := 0; s < numSlots; s++ {
				c := p.cpu[s]
				_, err := p.runOnce(c, i)
				out = p.readOut(c, out[:0])
				checked++
				if err != nil || c.Cycles != p.ref[i].cycles || c.Instret != p.ref[i].instret ||
					!bytes.Equal(out, p.ref[i].out) {
					mismatched++
				}
			}
		}
	}
	return checked, mismatched
}

// meanInstret is the mean instructions per run over the input sets.
func (p *program) meanInstret() float64 {
	var t float64
	for _, r := range p.ref {
		t += float64(r.instret)
	}
	return t / float64(len(p.ref))
}

func (p *program) meanCycles() float64 {
	var t float64
	for _, r := range p.ref {
		t += float64(r.cycles)
	}
	return t / float64(len(p.ref))
}

// mips is emulated million instructions per host second over the
// programs of one class ("" = every program) on one engine: in each
// timed slice, every instruction those programs retired over the host
// time of all their runs, divided by the host's speed in that slice
// when scaled (see probe); the median over the slices.
func (e *embedded) mips(class string, slot int, scaled bool) float64 {
	var perSlice []float64
	for k := range e.frameNs {
		var instr, ns float64
		for _, p := range e.progs {
			if class == "" || p.class == class {
				instr += p.instr[slot][k]
				ns += p.ns[slot][k]
			}
		}
		if ns > 0 {
			perSlice = append(perSlice, instr/ns*1e3/e.sliceSpeed(k, scaled))
		}
	}
	return median(perSlice)
}

// sliceSpeed is the host's speed in slice k when scaled, else 1.
func (e *embedded) sliceSpeed(k int, scaled bool) float64 {
	if !scaled {
		return 1
	}
	return e.probe.speed(k)
}

// runNs is the host time of one run of p on an engine: in each timed
// slice, the time of all runs over their number; the median over the
// slices.
func (p *program) runNs(slot int) float64 {
	var perSlice []float64
	for k, n := range p.runs[slot] {
		if n > 0 {
			perSlice = append(perSlice, p.ns[slot][k]/float64(n))
		}
	}
	return median(perSlice)
}

// frameTime is the host time of one corrected frame, the same way.
func (e *embedded) frameTime() float64 {
	var perSlice []float64
	for k, n := range e.frameN {
		if n > 0 {
			perSlice = append(perSlice, e.frameNs[k]/float64(n))
		}
	}
	return median(perSlice)
}

// framesPerSec is frames corrected per host second: in each timed
// slice, the frames over their host time, divided by the host's speed
// in that slice when scaled; the median over the slices.
func (e *embedded) framesPerSec(scaled bool) float64 {
	var perSlice []float64
	for k, n := range e.frameN {
		if n > 0 {
			perSlice = append(perSlice, float64(n)/e.frameNs[k]*1e9/e.sliceSpeed(k, scaled))
		}
	}
	return median(perSlice)
}

// sabreLayers fills the embedded path's per-layer metrics: set-up costs
// from the set-up rounds, and dispatch statistics from one pass over
// every (program, input) pair with CompiledStats attached. It returns
// the cost of attaching the statistics, as the compiled Kalman
// throughput lost with them on.
func sabreLayers(rep *report, e *embedded, tc *tracer) float64 {
	m := rep.metrics
	var asm, translate, predecode float64
	for _, p := range e.progs {
		asm += median(p.assembleNs)
		translate += median(p.firstNs[slotCompiled])
		predecode += median(p.firstNs[slotDefault])
	}
	n := float64(len(e.progs))
	m["sabre.assemble_us"] = asm / n / 1e3
	m["sabre.translate_us"] = translate / n / 1e3
	m["sabre.predecode_us"] = predecode / n / 1e3

	type classStats struct {
		dispatches, generic, retired, icall             float64
		compiledNs, defaultNs, instret, cycles, updates float64
	}
	classes := map[string]*classStats{}
	for pi, p := range e.progs {
		cs := classes[p.class]
		if cs == nil {
			cs = &classStats{}
			classes[p.class] = cs
		}
		cs.compiledNs += p.runNs(slotCompiled)
		cs.defaultNs += p.runNs(slotDefault)
		cs.instret += p.meanInstret()
		cs.cycles += p.meanCycles()
		cs.updates += float64(p.updates)
		c := p.cpu[slotCompiled]
		req := int64(reqEmbedded + pi)
		for i := 0; i < p.inputs; i++ {
			var st sabre.CompiledStats
			c.CollectCompiledStats(&st)
			d, err := p.runOnce(c, i)
			c.CollectCompiledStats(nil)
			tc.addDur("sabre.steady_run.compiled", -1, req, time.Now().Add(-d), d, 1)
			if err != nil {
				rep.fail(1, "program runs failed with statistics attached")
				continue
			}
			disp := float64(st.KernelDispatches() + st.GenericDispatches())
			cs.dispatches += disp
			cs.generic += float64(st.GenericDispatches())
			cs.retired += float64(st.Retired())
			cs.icall += float64(st.IntrinsicCalls)
		}
		for i := 0; i < p.inputs; i++ {
			d, err := p.runOnce(p.cpu[slotDefault], i)
			if err != nil {
				rep.fail(1, "program runs failed in the traced pass")
			}
			tc.addDur("sabre.steady_run.default", -1, req, time.Now().Add(-d), d, 1)
		}
	}
	for _, name := range []string{"kalman", "fx", "runtime"} {
		cs := classes[name]
		// Per-run figures, summed over the class's programs: each ran
		// once per input set with statistics attached.
		dispPerRun := cs.dispatches / inputSets
		m["sabre."+name+".dispatches_per_kinstr"] = cs.dispatches / (cs.retired / 1e3)
		m["sabre."+name+".ns_per_dispatch"] = cs.compiledNs / dispPerRun
		m["sabre."+name+".intrinsic_calls"] = cs.icall / inputSets
		m["sabre."+name+".generic_share"] = cs.generic / cs.dispatches
		m["sabre.default."+name+".ns_per_instr"] = cs.defaultNs / cs.instret
		m["sabre."+name+".cycles_per_update"] = cs.cycles / cs.updates
	}
	m["hcsim.ns_per_cycle"] = e.frameTime() / median(e.frameCycles)
	m["affine.cycles_per_frame"] = median(e.frameCycles)

	// Statistics on vs off, alternating, on the compiled Kalman program.
	// Medians, because a single run the host stalls for milliseconds
	// would outweigh the few percent measured.
	k := e.progs[0]
	c := k.cpu[slotCompiled]
	const pairs = 400
	var on, off []float64
	var st sabre.CompiledStats
	for r := 0; r < pairs; r++ {
		d, err := k.runOnce(c, r%k.inputs)
		off = append(off, float64(d))
		c.CollectCompiledStats(&st)
		d, err2 := k.runOnce(c, r%k.inputs)
		c.CollectCompiledStats(nil)
		on = append(on, float64(d))
		if err != nil || err2 != nil {
			rep.fail(1, "program runs failed in the traced pass")
		}
	}
	rep.printf("sabre: CompiledStats attached %.0f ns vs detached %.0f ns per Kalman run (medians)\n",
		median(on), median(off))
	return 1 - median(off)/median(on)
}
