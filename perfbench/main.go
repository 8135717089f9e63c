// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time on inputs generated from a seed, checks the
// outputs, and prints every metric by name with its unit; the last line
// of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 30 --trace 0
//
// Workloads: fleet-mixed and fleet-tiny drive an in-process fleetd over
// a binary bulk connection (closed loop) and an HTTP interactive
// connection (open loop); embedded runs the Sabre programs on the
// compiled and the default engine and the clocked affine pipeline. Every
// run also measures the other path in a shorter companion phase, so each
// run reports every end-to-end metric. With --trace 1 the run records
// spans at each layer boundary, replays its own specs through the
// layers' public calls (the layer ladder), and reports the per-layer
// metrics instead. perfbench/README.md describes the design.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic mix. fleetShare is the share of the
// timed phase given to the fleet path; the rest runs the embedded path.
// embeddedMain marks the workload built for the embedded path.
type workload struct {
	name         string
	traffic      traffic
	fleetShare   float64
	embeddedMain bool
}

// The embedded workload's fleet companion is fleet-tiny traffic: its
// cheap requests give steady latency percentiles in a short phase.
var workloads = []workload{
	{name: "fleet-mixed", traffic: mixedTraffic, fleetShare: 0.85},
	{name: "fleet-tiny", traffic: tinyTraffic, fleetShare: 0.85},
	{name: "embedded", traffic: tinyTraffic, fleetShare: 0.5, embeddedMain: true},
}

// metricDef names one reported metric. Per-layer metrics also say which
// end-to-end metric they should move, and on which workload.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "scenarios_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
	{name: "max_rss_mb", unit: "MB", better: "lower"},
	{name: "kalman_mips", unit: "Minstr/s", better: "higher"},
	{name: "fx_mips", unit: "Minstr/s", better: "higher"},
	{name: "runtime_mips", unit: "Minstr/s", better: "higher"},
	{name: "default_engine_mips", unit: "Minstr/s", better: "higher"},
	{name: "frames_per_s", unit: "1/s", better: "higher"},
}

var perLayer = []metricDef{
	{"core.step_ns", "ns", "lower", "scenarios_per_s", "fleet-mixed"},
	{"imu.sample_ns", "ns", "lower", "scenarios_per_s", "fleet-mixed"},
	{"traj.sample_ns", "ns", "lower", "scenarios_per_s", "fleet-mixed"},
	{"system.calibrate_us", "us", "lower", "scenarios_per_s", "fleet-mixed"},
	{"imu.reset_us", "us", "lower", "scenarios_per_s", "fleet-tiny"},
	{"core.reset_us", "us", "lower", "scenarios_per_s", "fleet-tiny"},
	{"system.run_us", "us", "lower", "scenarios_per_s", "fleet-mixed, fleet-tiny"},
	{"system.unattributed_frac", "1", "lower", "ladder validity (target <= 0.15)", "fleet-mixed, fleet-tiny"},
	{"system.epochs_per_scenario.static", "epochs", "lower", "explains scenarios_per_s", "fleet-mixed, fleet-tiny"},
	{"system.epochs_per_scenario.dynamic", "epochs", "lower", "explains scenarios_per_s", "fleet-mixed"},
	{"system.epochs_per_scenario.untuned", "epochs", "lower", "explains scenarios_per_s", "fleet-mixed"},
	{"system.allocs_per_scenario", "count", "lower", "zero-alloc contract", "fleet-mixed, fleet-tiny"},
	{"fleet.decode_ns", "ns", "lower", "scenarios_per_s", "fleet-tiny"},
	{"fleet.encode_ns", "ns", "lower", "scenarios_per_s", "fleet-tiny"},
	{"fleet.expand_ns", "ns", "lower", "scenarios_per_s", "fleet-tiny"},
	{"fleet.admit_ns", "ns", "lower", "scenarios_per_s, latency_p50_ms", "fleet-tiny"},
	{"fleet.session_us", "us", "lower", "latency_p50_ms, scenarios_per_s", "fleet-tiny"},
	{"fleet.http_us", "us", "lower", "latency_p50_ms", "fleet-tiny"},
	{"fleet.wait_ms", "ms", "lower", "latency_tail_ms", "fleet-mixed"},
	{"loadgen.late_ms", "ms", "lower", "latency metrics validity", "fleet-mixed, fleet-tiny"},
	{"sabre.assemble_us", "us", "lower", "setup_s", "embedded"},
	{"sabre.translate_us", "us", "lower", "setup_s", "embedded"},
	{"sabre.predecode_us", "us", "lower", "setup_s", "embedded"},
	{"sabre.kalman.dispatches_per_kinstr", "count", "lower", "kalman_mips", "embedded"},
	{"sabre.fx.dispatches_per_kinstr", "count", "lower", "fx_mips", "embedded"},
	{"sabre.runtime.dispatches_per_kinstr", "count", "lower", "runtime_mips", "embedded"},
	{"sabre.kalman.ns_per_dispatch", "ns", "lower", "kalman_mips", "embedded"},
	{"sabre.fx.ns_per_dispatch", "ns", "lower", "fx_mips", "embedded"},
	{"sabre.runtime.ns_per_dispatch", "ns", "lower", "runtime_mips", "embedded"},
	{"sabre.kalman.intrinsic_calls", "count", "higher", "kalman_mips", "embedded"},
	{"sabre.fx.intrinsic_calls", "count", "higher", "fx_mips", "embedded"},
	{"sabre.runtime.intrinsic_calls", "count", "higher", "runtime_mips", "embedded"},
	{"sabre.kalman.generic_share", "1", "lower", "tier coverage", "embedded"},
	{"sabre.fx.generic_share", "1", "lower", "tier coverage", "embedded"},
	{"sabre.runtime.generic_share", "1", "lower", "tier coverage", "embedded"},
	{"sabre.default.kalman.ns_per_instr", "ns", "lower", "default_engine_mips", "embedded"},
	{"sabre.default.fx.ns_per_instr", "ns", "lower", "default_engine_mips", "embedded"},
	{"sabre.default.runtime.ns_per_instr", "ns", "lower", "default_engine_mips", "embedded"},
	{"sabre.kalman.cycles_per_update", "cycles", "lower", "must not move (simulated time)", "embedded"},
	{"sabre.fx.cycles_per_update", "cycles", "lower", "must not move (simulated time)", "embedded"},
	{"sabre.runtime.cycles_per_update", "cycles", "lower", "must not move (simulated time)", "embedded"},
	{"hcsim.ns_per_cycle", "ns", "lower", "frames_per_s", "embedded"},
	{"affine.cycles_per_frame", "cycles", "lower", "must not move (simulated time)", "embedded"},
	{"trace.overhead_frac", "1", "lower", "trace validity", "all"},
}

// setupRounds is how often a run sets up; setup_s is the median. Only
// the first round is cold: the later ones find the process-wide profile
// cache filled, the heap grown and the code paged in.
const setupRounds = 15

// timedSlices is how many fleet/embedded slice pairs a run alternates.
const timedSlices = 10

// report collects one run's outcome.
type report struct {
	w         io.Writer
	attempted int
	failed    int
	metrics   map[string]float64
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.w, format, args...) }

func (r *report) fail(n int, what string) {
	if n > 0 {
		r.failed += n
		r.printf("FAIL: %d %s\n", n, what)
	}
}

func main() {
	name := flag.String("workload", "", "workload: fleet-mixed, fleet-tiny or embedded")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the timed phase (s)")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fleet-mixed|fleet-tiny|embedded, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	rep := &report{w: os.Stdout, metrics: map[string]float64{}}
	// The embedded path times runs with the thread's CPU clock, so the
	// goroutine that runs them stays on one thread.
	runtime.LockOSThread()
	if err := run(rep, *w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			os.Exit(1)
		}
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one workload run into rep.
func run(rep *report, w workload, seed int64, seconds time.Duration, traced bool) error {
	printEnv(rep, w, seed, seconds, traced)
	var tc *tracer
	if traced {
		tc = newTracer()
	}
	workers := runtime.NumCPU()
	tr := w.traffic
	progs := newPrograms(seed)

	// Set-up, several times over; the last one's state is measured. Each
	// round's time is scaled by the host's speed, measured before and
	// after it on every core (see probe).
	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	setupProbes := make([]*probe, workers)
	for i := range setupProbes {
		setupProbes[i] = newProbe(wall)
	}
	var setups, rawSetups []float64
	var rg *rig
	var emb *embedded
	speed := hostSpeed(setupProbes)
	for i := 0; i < setupRounds; i++ {
		if rg != nil {
			rg.close()
		}
		t0 := time.Now()
		var err error
		if rg, err = startRig(tr, workers); err != nil {
			return err
		}
		if emb, err = setupEmbedded(progs, seed, tc); err != nil {
			rg.close()
			return err
		}
		d := time.Since(t0).Seconds()
		next := hostSpeed(setupProbes)
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*(speed+next)/2)
		speed = next
	}
	defer rg.close()
	rep.metrics["setup_s"] = median(setups)
	rep.printf("setup: %d rounds, scaled s = %.4g; unscaled median %.4f s, the first (cold) round %.4f s\n",
		len(setups), setups, median(rawSetups), rawSetups[0])
	if err := emb.prepareChecks(); err != nil {
		return err
	}

	// Timed phases: the fleet and the embedded phase alternate in slices,
	// so both sample the whole run's share of host contention. In a
	// traced run the odd fleet slices record spans; the tracing overhead
	// is the throughput they lost against the even slices after the
	// first, which see the same drift but no first-use costs.
	sliceDur := seconds / timedSlices
	fleetDur := time.Duration(float64(sliceDur) * w.fleetShare)
	bulkGen, interGen := newBulkGen(tr, seed), newInteractiveGen(tr, seed)
	bulkPick, interPick := newStream(seed, streamSample), newStream(seed, streamSample+100)
	var ph, plain, withSpans *fleetPhase
	for i := 0; i < timedSlices; i++ {
		var sliceTc *tracer
		if traced && i%2 == 1 {
			sliceTc = tc
		}
		cpu0, err := processCPU()
		if err != nil {
			return err
		}
		steal0, total0 := cpuTicks()
		s := runFleet(rg, tr, bulkGen, interGen, bulkPick, interPick, i, fleetDur, sliceTc)
		steal1, total1 := cpuTicks()
		cpu1, err := processCPU()
		if err != nil {
			return err
		}
		s.cpu = (cpu1 - cpu0).Seconds()
		share := 0.0
		if total1 > total0 {
			share = (steal1 - steal0) / (total1 - total0)
		}
		s.discountSteal(share)
		ph = merged(ph, s)
		switch {
		case sliceTc != nil:
			withSpans = merged(withSpans, s)
		case i > 0:
			plain = merged(plain, s)
		}
		emb.run(sliceDur - fleetDur)
	}
	ph.replay = ph.replay[:min(len(ph.replay), tr.caps.replay)]
	fleetOverhead := 0.0
	if traced {
		fleetOverhead = 1 - withSpans.rate()/plain.rate()
	}

	// Output checks, outside the timed phases.
	if err := reportFleet(rep, tr, ph, workers); err != nil {
		return err
	}
	reportEmbedded(rep, emb)
	if traced {
		if err := ladder(rep, rg, tr, ph, workers, tc); err != nil {
			return err
		}
		embOverhead := sabreLayers(rep, emb, tc)
		// The overhead reported is that of the workload's main path.
		overhead := fleetOverhead
		if w.embeddedMain {
			overhead = embOverhead
		}
		rep.metrics["trace.overhead_frac"] = overhead
		rep.printf("trace: overhead on the fleet path %.4f, on the embedded path %.4f\n", fleetOverhead, embOverhead)
		tc.summary(rep.w)
		path, err := tc.write(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err != nil {
			return err
		}
		rep.printf("trace: spans written to %s\n", path)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	rep.metrics["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	rep.printf("failed_frac = %.6f (%d of %d operations)\n",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	printMetrics(rep, traced)
	return nil
}

// rate is OK scenarios per second of a fleet phase on a host that gives
// the process every core all the time: the scenarios over the process's
// CPU time, spread over nproc cores. On a quiet host the phase keeps the
// cores ~90% busy and this reads ~10% above the wall rate; under steal,
// when the hypervisor takes vCPUs away, the wall rate falls and this
// does not. A change that leaves cores idle does not move it either;
// the latencies, in wall time, show that.
func (ph *fleetPhase) rate() float64 {
	return float64(ph.bulkOK+ph.interOK) / (ph.cpu / float64(runtime.NumCPU()))
}

// processCPU is the CPU time of every thread of the process.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTicks reads the VM's CPU accounting from the kernel (/proc/stat):
// the ticks the hypervisor stole from all vCPUs, and all ticks. Both
// are 0 where the kernel does not report them, and then no steal is
// discounted.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// tailQuantile is the interactive latency percentile latency_tail_ms
// reports. Higher percentiles follow the host's stalls more than the
// program: over ten fleet-tiny runs whose stolen share of CPU time
// ranged from 1% to 31%, the spread of the steal-free latency was 0.15
// at p90, 0.23 at p95 and 0.31 at p99. Each run prints them all, and
// the highest percentile with ten samples beyond it.
const tailQuantile = 0.90

func reportFleet(rep *report, tr traffic, ph *fleetPhase, workers int) error {
	rep.attempted += ph.bulkSent + ph.interSent
	rep.fail(ph.shed, "scenarios shed")
	rep.fail(ph.errored, "scenarios errored")
	rep.fail(ph.transErr, "scenarios lost to transport failures")
	checked, bad, err := checkFleet(ph)
	if err != nil {
		return err
	}
	rep.fail(bad, "served results differ from direct runs")
	lat := ph.unstolen
	top, pct, ok := tail(lat)
	if !ok {
		return fmt.Errorf("%d interactive latency samples are too few for a tail percentile", len(lat))
	}
	rep.metrics["scenarios_per_s"] = ph.rate()
	rep.metrics["latency_p50_ms"] = median(lat)
	rep.metrics["latency_tail_ms"] = quantile(lat, tailQuantile)
	rep.metrics["loadgen.late_ms"] = quantile(ph.late, 0.99)
	rep.printf("fleet %s: %.2f s, %d bulk + %d interactive scenarios ok, %d batches of %d, %d requests at %.0f/s, workers %d\n",
		tr.name, ph.elapsed, ph.bulkOK, ph.interOK, ph.bulkSent/tr.bulkBatch, tr.bulkBatch,
		ph.requests, tr.rate, workers)
	rep.printf("fleet CPU: %.2f s of process CPU time, %.3f of %d cores over the wall time; %.1f scenarios per wall second\n",
		ph.cpu, ph.cpu/(ph.elapsed*float64(runtime.NumCPU())), runtime.NumCPU(),
		float64(ph.bulkOK+ph.interOK)/ph.elapsed)
	rep.printf("fleet latency over %d requests, without steal: p50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f, p%.2f %.3f (10 beyond), max %.3f ms\n",
		len(lat), median(lat), quantile(lat, 0.90), quantile(lat, 0.95), quantile(lat, 0.99),
		pct, top, quantile(lat, 1))
	rep.printf("fleet steal: %.3f of the VM's CPU time (slices %.3f to %.3f); latency as measured: p50 %.3f, p95 %.3f ms\n",
		mean(ph.stolen), quantile(ph.stolen, 0), quantile(ph.stolen, 1),
		median(ph.latencies), quantile(ph.latencies, tailQuantile))
	rep.printf("fleet check: %d served results compared with direct runs, %d differ\n", checked, bad)
	return nil
}

func reportEmbedded(rep *report, e *embedded) {
	checked, bad := e.check()
	rep.attempted += e.runs + e.frames
	rep.fail(e.badRuns, "program runs off the reference engine's cycles or instructions")
	rep.fail(bad, "(program, input, engine) outputs differ from the reference engine")
	rep.fail(e.badFrames, "corrected frames differ from the fixed-point transform")
	if e.runErr != nil {
		rep.printf("first bad run: %v\n", e.runErr)
	}
	rep.metrics["kalman_mips"] = e.mips("kalman", slotCompiled, true)
	rep.metrics["fx_mips"] = e.mips("fx", slotCompiled, true)
	rep.metrics["runtime_mips"] = e.mips("runtime", slotCompiled, true)
	rep.metrics["default_engine_mips"] = e.mips("", slotDefault, true)
	rep.metrics["frames_per_s"] = e.framesPerSec(true)
	rep.printf("embedded: %d program runs, %d frames (checksum %#08x), %d (program, input, engine) outputs checked against the reference engine\n",
		e.runs, e.frames, e.want, checked)
	var speeds []float64
	for k := range e.frameN {
		speeds = append(speeds, e.probe.speed(k))
	}
	rep.printf("embedded host speed: median %.4f of the probe's reference (slices %.4f to %.4f); unscaled MIPS kalman %.1f fx %.1f runtime %.1f default %.1f, frames/s %.2f\n",
		median(speeds), quantile(speeds, 0), quantile(speeds, 1),
		e.mips("kalman", slotCompiled, false), e.mips("fx", slotCompiled, false),
		e.mips("runtime", slotCompiled, false), e.mips("", slotDefault, false), e.framesPerSec(false))
	for _, p := range e.progs {
		rep.printf("embedded %-14s %8.0f instr/run  compiled %8.1f MIPS  default %8.1f MIPS\n",
			p.name, p.meanInstret(), p.meanInstret()/p.runNs(slotCompiled)*1e3,
			p.meanInstret()/p.runNs(slotDefault)*1e3)
	}
}

func printMetrics(rep *report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("metric %-36s %14.6g %s", d.name, rep.metrics[d.name], d.unit)
		if d.moves != "" {
			line += fmt.Sprintf("  (moves %s on %s)", d.moves, d.on)
		}
		rep.printf("%s\n", line)
	}
}

// printEnv records the run environment: drift between boxes is larger
// than most regressions, so every result names where it was measured.
func printEnv(rep *report, w workload, seed int64, seconds time.Duration, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	rep.printf("env: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
	rep.printf("run: workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds.Seconds(), traced)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the code measured when no VCS revision is
// available.
func sourceDigest() string {
	var files []string
	// Best effort: an unreadable entry only leaves the digest without it.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
