package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"boresight/internal/core"
	"boresight/internal/fleet"
	"boresight/internal/geom"
	"boresight/internal/imu"
	"boresight/internal/system"
	"boresight/internal/traj"
)

// The layer ladder replays the workload's own generated specs through
// the public calls of each serving layer and times them, so the
// end-to-end numbers break down into per-layer numbers. The per-scenario
// part re-implements Runner.RunInto from the public API of imu, traj and
// core; its self-check (final misalignment, 3σ and step count equal to
// RunInto's, bit for bit) proves it measures the served work.

// ladderRun holds the instruments and estimator the ladder reuses
// across scenarios, as a Runner does.
type ladderRun struct {
	dmu, calDMU *imu.DMU
	acc, calACC *imu.ACC
	est         *core.Estimator
}

// ladderTimes is one scenario's time per layer.
type ladderTimes struct {
	imuReset, coreReset, calibrate time.Duration
	traj, imu, core                time.Duration
	epochs                         int
	calibrated                     bool
}

func (t ladderTimes) sum() time.Duration {
	return t.imuReset + t.coreReset + t.calibrate + t.traj + t.imu + t.core
}

// scenario runs cfg layer by layer and returns the times, the final
// misalignment, its per-axis 3σ in degrees and the step count.
func (l *ladderRun) scenario(cfg system.Config, parent int, req int64, tc *tracer) (ladderTimes, geom.Euler, [3]float64, int, error) {
	var lt ladderTimes
	t0 := time.Now()
	if l.dmu == nil {
		l.dmu = imu.NewDMU(cfg.DMU, cfg.Seed)
		l.acc = imu.NewACC(cfg.ACC, cfg.Seed+1)
	} else {
		l.dmu.Reset(cfg.DMU, cfg.Seed)
		l.acc.Reset(cfg.ACC, cfg.Seed+1)
	}
	t1 := time.Now()
	var err error
	if l.est == nil {
		l.est = core.New(cfg.Filter)
	} else {
		err = l.est.Reset(cfg.Filter)
	}
	t2 := time.Now()
	if err != nil {
		return lt, geom.Euler{}, [3]float64{}, 0, err
	}
	lt.imuReset, lt.coreReset = t1.Sub(t0), t2.Sub(t1)
	tc.add("imu.reset", parent, req, t0, t1, 2)
	tc.add("core.reset", parent, req, t1, t2, 1)
	dmu, acc, est := l.dmu, l.acc, l.est

	if cfg.Calibrate {
		// The level-platform calibration: aligned instruments, mean
		// residual as the initial bias.
		lt.calibrated = true
		accCfg := cfg.ACC
		accCfg.Misalignment = geom.Euler{}
		c0 := time.Now()
		if l.calDMU == nil {
			l.calDMU = imu.NewDMU(cfg.DMU, cfg.Seed+100)
			l.calACC = imu.NewACC(accCfg, cfg.Seed+101)
		} else {
			l.calDMU.Reset(cfg.DMU, cfg.Seed+100)
			l.calACC.Reset(accCfg, cfg.Seed+101)
		}
		c1 := time.Now()
		pose := traj.StaticPose{Dur: cfg.CalibrationTime}
		dt := 1 / cfg.SampleRate
		n := int(cfg.CalibrationTime * cfg.SampleRate)
		var sx, sy float64
		for i := 0; i < n; i++ {
			st := pose.At(float64(i) * dt)
			ds := l.calDMU.Sample(st, [3]float64{})
			as := l.calACC.Sample(st, [3]float64{})
			sx += as.FX - ds.Accel[0]
			sy += as.FY - ds.Accel[1]
		}
		est.SetInitialBias(sx/float64(n), sy/float64(n), 0.005)
		c2 := time.Now()
		lt.imuReset += c1.Sub(c0)
		lt.calibrate = c2.Sub(c1)
		tc.add("imu.reset", parent, req, c0, c1, 2)
		tc.add("system.calibrate", parent, req, c1, c2, n)
	}

	dt := 1 / cfg.SampleRate
	dur := cfg.Profile.Duration()
	if cfg.Duration > 0 && cfg.Duration < dur {
		dur = cfg.Duration
	}
	n := int(dur * cfg.SampleRate)
	loop := time.Now()
	a := loop
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		st := cfg.Profile.At(t)
		var vib [3]float64
		if cfg.Vibrate {
			vib = cfg.Vibration.At(t, st.Vel.Norm())
		}
		b := time.Now()
		ds := dmu.Sample(st, vib)
		as := acc.Sample(st, vib)
		c := time.Now()
		if _, err := est.StepDegraded(dt, ds.Accel, ds.Rate, as.FX, as.FY, core.QualityFresh); err != nil {
			return lt, geom.Euler{}, [3]float64{}, 0, fmt.Errorf("ladder step %d: %w", i, err)
		}
		d := time.Now()
		lt.traj += b.Sub(a)
		lt.imu += c.Sub(b)
		lt.core += d.Sub(c)
		a = d
	}
	lt.epochs = n
	tc.addDur("traj.sample", parent, req, loop, lt.traj, n)
	tc.addDur("imu.sample", parent, req, loop.Add(lt.traj), lt.imu, n)
	tc.addDur("core.step", parent, req, loop.Add(lt.traj+lt.imu), lt.core, n)

	s := est.AngleSigmas()
	var sig3 [3]float64
	for i := range sig3 {
		sig3[i] = geom.Rad2Deg(3 * s[i])
	}
	return lt, est.Misalignment(), sig3, est.Steps(), nil
}

// clockCost is the median cost of one time.Now call, in ns.
func clockCost() float64 {
	var xs []float64
	for r := 0; r < 9; r++ {
		const n = 20000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			time.Now()
		}
		xs = append(xs, float64(time.Since(t0))/n)
	}
	return median(xs)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// ladder replays the fleet phase's specs layer by layer and fills the
// serving path's per-layer metrics.
func ladder(rep *report, rg *rig, tr traffic, ph *fleetPhase, workers int, tc *tracer) error {
	specs := ph.replay
	if len(specs) == 0 {
		return fmt.Errorf("ladder: no specs to replay")
	}
	cfgs := make([]system.Config, len(specs))
	for i, sp := range specs {
		var err error
		if cfgs[i], err = sp.Config(); err != nil {
			return err
		}
	}
	var l ladderRun
	runner := system.NewRunner()
	var res system.Result
	// Warm both sides once per kind so neither pays first-use set-up.
	warmed := map[fleet.Kind]bool{}
	for i, sp := range specs {
		if !warmed[sp.Kind] {
			warmed[sp.Kind] = true
			if _, _, _, _, err := l.scenario(cfgs[i], -1, 0, nil); err != nil {
				return err
			}
			if err := runner.RunInto(&res, cfgs[i]); err != nil {
				return err
			}
		}
	}

	// Each per-epoch interval includes one clock read; take its cost out
	// so the layers are not charged for the ladder's own timing.
	clock := clockCost()
	var total ladderTimes
	var runTotal time.Duration
	calibrated := 0
	mismatch := 0
	steps := map[fleet.Kind][]float64{}
	results := make([]system.Result, len(specs))
	for j, sp := range specs {
		req := int64(reqLadder + j)
		s0 := time.Now()
		root := tc.add("ladder.scenario", -1, req, s0, s0, 1)
		lt, mis, sig3, nsteps, err := l.scenario(cfgs[j], root, req, tc)
		if err != nil {
			return err
		}
		tc.setEnd(root, time.Now())
		r0 := time.Now()
		if err := runner.RunInto(&res, cfgs[j]); err != nil {
			return err
		}
		r1 := time.Now()
		tc.add("system.run_into", -1, req, r0, r1, 1)
		runTotal += r1.Sub(r0)
		results[j] = res
		if !sameBits(mis.Roll, res.Estimated.Roll) || !sameBits(mis.Pitch, res.Estimated.Pitch) ||
			!sameBits(mis.Yaw, res.Estimated.Yaw) || nsteps != res.Steps ||
			!sameBits(sig3[0], res.ThreeSigmaDeg[0]) || !sameBits(sig3[1], res.ThreeSigmaDeg[1]) ||
			!sameBits(sig3[2], res.ThreeSigmaDeg[2]) {
			mismatch++
		}
		total.imuReset += lt.imuReset
		total.coreReset += lt.coreReset
		total.calibrate += lt.calibrate
		overhead := time.Duration(float64(lt.epochs) * clock)
		total.traj += lt.traj - overhead
		total.imu += lt.imu - overhead
		total.core += lt.core - overhead
		total.epochs += lt.epochs
		if lt.calibrated {
			calibrated++
		}
		steps[sp.Kind] = append(steps[sp.Kind], float64(res.Steps))
	}
	rep.fail(mismatch, "ladder replays differ from RunInto (the ladder would not measure the served work)")
	n := float64(len(specs))
	perEpoch := func(d time.Duration) float64 { return float64(d) / float64(total.epochs) }
	m := rep.metrics
	m["core.step_ns"] = perEpoch(total.core)
	m["imu.sample_ns"] = perEpoch(total.imu)
	m["traj.sample_ns"] = perEpoch(total.traj)
	m["system.calibrate_us"] = 0
	if calibrated > 0 {
		m["system.calibrate_us"] = float64(total.calibrate) / 1e3 / float64(calibrated)
	}
	m["imu.reset_us"] = float64(total.imuReset) / 1e3 / n
	m["core.reset_us"] = float64(total.coreReset) / 1e3 / n
	m["system.run_us"] = float64(runTotal) / 1e3 / n
	m["system.unattributed_frac"] = 1 - float64(total.sum())/float64(runTotal)
	for _, k := range []fleet.Kind{fleet.KindStatic, fleet.KindDynamic, fleet.KindUntuned} {
		v := 0.0 // a kind the workload does not send
		if len(steps[k]) > 0 {
			v = mean(steps[k])
		}
		m["system.epochs_per_scenario."+k.String()] = v
	}
	rep.printf("ladder: %d specs replayed (%d calibrated, %d epochs), %d differ from RunInto; %.1f ns per clock read taken out of each per-epoch layer\n",
		len(specs), calibrated, total.epochs, mismatch, clock)
	rep.printf("ladder: RunInto %.1f us/scenario = imu.reset %.1f + core.reset %.1f + calibrate %.1f + traj %.1f + imu %.1f + core %.1f + unattributed %.1f%%\n",
		m["system.run_us"], m["imu.reset_us"], m["core.reset_us"], float64(total.calibrate)/1e3/n,
		float64(total.traj)/1e3/n, float64(total.imu)/1e3/n, float64(total.core)/1e3/n,
		100*m["system.unattributed_frac"])
	rep.printf("ladder: Result.Steps counts the work; drive kinds run whole 57-s patterns whatever Dur says\n")

	// Heap allocations per steady-state RunInto. The counter is
	// process-wide, so the fewest over three passes is kept: an
	// allocation of RunInto's shows in every pass, one of an idle
	// connection's goroutine in only some.
	k := min(len(cfgs), 16)
	allocs := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, cfg := range cfgs[:k] {
			if err := runner.RunInto(&res, cfg); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(k))
	}
	m["system.allocs_per_scenario"] = allocs

	codecLayers(rep, specs, results, tr.bulkBatch, tc)
	if err := sessionLayers(rep, rg, tr, specs, tc); err != nil {
		return err
	}
	return interactiveLayers(rep, rg, ph, workers, tc)
}

// codecLayers times the per-frame wire calls and spec expansion over the
// replayed specs, in passes long enough for the clock (each call is
// tens to hundreds of ns, too short to time one by one).
func codecLayers(rep *report, specs []fleet.ScenarioSpec, results []system.Result, batch int, tc *tracer) {
	reps := max(1, 50_000/len(specs))
	calls := float64(reps * len(specs))
	// One chunk per bulk batch, as a session reads a batch.
	var chunks [][]byte
	for lo := 0; lo < len(specs); lo += batch {
		var chunk []byte
		for _, sp := range specs[lo:min(lo+batch, len(specs))] {
			chunk = fleet.AppendScenario(chunk, sp)
		}
		chunks = append(chunks, chunk)
	}
	var p fleet.FrameParser
	bad := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, chunk := range chunks {
			p.Feed(chunk)
			for {
				_, payload, ok := p.Next()
				if !ok {
					break
				}
				if _, err := fleet.DecodeScenario(payload); err != nil {
					bad++
				}
			}
		}
	}
	t1 := time.Now()
	var buf []byte
	for r := 0; r < reps; r++ {
		buf = buf[:0]
		for i := range results {
			buf = fleet.AppendResult(buf, uint32(i), fleet.StatusOK, &results[i])
		}
	}
	t2 := time.Now()
	for r := 0; r < reps; r++ {
		for _, sp := range specs {
			if _, err := sp.Config(); err != nil {
				bad++
			}
		}
	}
	t3 := time.Now()
	rep.fail(bad, "replayed frames failed to decode or expand")
	tc.add("fleet.decode", -1, reqLadder, t0, t1, int(calls))
	tc.add("fleet.encode", -1, reqLadder, t1, t2, int(calls))
	tc.add("fleet.expand", -1, reqLadder, t2, t3, int(calls))
	rep.metrics["fleet.decode_ns"] = float64(t1.Sub(t0)) / calls
	rep.metrics["fleet.encode_ns"] = float64(t2.Sub(t1)) / calls
	rep.metrics["fleet.expand_ns"] = float64(t3.Sub(t2)) / calls
}

// directBatch serves specs through Batch.Submit/Wait and encodes the
// results, as a session does, without a connection. It returns the
// whole time and the Submit time.
func directBatch(srv *fleet.Server, specs []fleet.ScenarioSpec, buf []byte) (all, submit time.Duration, shed int) {
	t0 := time.Now()
	b := srv.NewBatch()
	for _, sp := range specs {
		b.Add(sp)
	}
	ta := time.Now()
	_, shed = b.Submit(false)
	tb := time.Now()
	b.Wait()
	buf = buf[:0]
	for i := range b.Results() {
		buf = fleet.AppendResult(buf, uint32(i), b.Status(i), b.Results()[i])
	}
	b.Release()
	return time.Since(t0), tb.Sub(ta), shed
}

// sessionPairs is how many (direct, session) batch pairs the session
// measurement takes; the batches' own run time varies by more than the
// session costs, so it takes the median of many differences.
const sessionPairs = 20

// sessionLayers measures admission and the binary session: replay
// batches of the bulk batch size are served directly and through
// ServeConn over net.Pipe, alternating which goes first; the session's
// cost is the difference.
func sessionLayers(rep *report, rg *rig, tr traffic, specs []fleet.ScenarioSpec, tc *tracer) error {
	nb := len(specs) / tr.bulkBatch
	if nb == 0 {
		return fmt.Errorf("ladder: fewer replay specs than one bulk batch")
	}
	cli, srvConn := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rg.srv.ServeConn(srvConn)
	}()
	defer func() { cli.Close(); wg.Wait() }()
	c := &binClient{conn: cli, rbuf: make([]byte, 64<<10)}
	if err := c.hello(); err != nil {
		return err
	}
	var session []float64
	var admitNs time.Duration
	var buf []byte
	for i := 0; i < sessionPairs; i++ {
		batch := specs[i%nb*tr.bulkBatch : (i%nb+1)*tr.bulkBatch]
		req := int64(reqLadder + i)
		var direct, served time.Duration
		for leg := 0; leg < 2; leg++ {
			t0 := time.Now()
			if (leg+i)%2 == 0 {
				d, submit, shed := directBatch(rg.srv, batch, buf)
				direct, admitNs = d, admitNs+submit
				rep.fail(shed, "replayed direct scenarios shed")
				tc.add("fleet.direct_batch", -1, req, t0, time.Now(), len(batch))
				continue
			}
			st, err := c.runBatch(batch)
			if err != nil {
				return err
			}
			served = time.Since(t0)
			rep.fail(st.shed+st.errored, "replayed session scenarios not ok")
			tc.add("fleet.session", -1, req, t0, time.Now(), len(batch))
		}
		session = append(session, float64(served-direct)/1e3)
	}
	rep.metrics["fleet.session_us"] = median(session)
	rep.metrics["fleet.admit_ns"] = float64(admitNs) / float64(sessionPairs*tr.bulkBatch)
	rep.printf("ladder: session over net.Pipe minus direct Submit/Wait/encode, per batch of %d: %v us\n", tr.bulkBatch, roundAll(session))
	return nil
}

// interactiveLayers measures the HTTP handler against the direct path
// for the sampled interactive requests, and the residual wait of each
// request: its latency minus the handler and the run time of its specs
// (the specs of one request run in parallel on the workers).
func interactiveLayers(rep *report, rg *rig, ph *fleetPhase, workers int, tc *tracer) error {
	if len(ph.interSamples) == 0 {
		return fmt.Errorf("ladder: no interactive requests sampled")
	}
	h := rg.srv.HTTPHandler()
	runner := system.NewRunner()
	var res system.Result
	var httpUs, waits []float64
	for qi, q := range ph.interSamples {
		req := int64(reqInteractive + qi)
		body := encodeRequest(q.specs)
		t0 := time.Now()
		direct, _, shed := directBatch(rg.srv, q.specs, nil)
		t1 := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		t2 := time.Now()
		tc.add("fleet.direct_batch", -1, req, t0, t1, len(q.specs))
		tc.add("fleet.http_handler", -1, req, t1, t2, len(q.specs))
		if rec.Code != 200 || shed > 0 {
			rep.fail(len(q.specs), "replayed interactive scenarios not ok")
		}
		httpUs = append(httpUs, float64(t2.Sub(t1)-direct)/1e3)
	}
	rep.metrics["fleet.http_us"] = median(httpUs)
	for _, q := range ph.interSamples {
		var sum, longest time.Duration
		for _, sp := range q.specs {
			cfg, err := sp.Config()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := runner.RunInto(&res, cfg); err != nil {
				return err
			}
			d := time.Since(t0)
			sum += d
			longest = max(longest, d)
		}
		span := max(longest, sum/time.Duration(min(workers, len(q.specs))))
		waits = append(waits, q.latency-rep.metrics["fleet.http_us"]/1e3-float64(span)/1e6)
	}
	rep.metrics["fleet.wait_ms"] = mean(waits)
	rep.printf("ladder: HTTP handler minus direct path per request: %v us; residual wait per request: %v ms\n",
		roundAll(httpUs), roundAll(waits))
	return nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*100) / 100
	}
	return out
}
