package system

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"boresight/internal/fault"
	"boresight/internal/geom"
	"boresight/internal/traj"
)

// runnerTestConfigs is a heterogeneous scenario sequence covering every
// per-run object the Runner reuses: direct and linked paths, odometry,
// bump realignment, adaptive R, faulted channels, and differing filter
// layouts (so the estimator re-dimensions mid-sequence).
func runnerTestConfigs() []Config {
	mis := geom.EulerDeg(2, -3, 1)

	static := StaticScenario(mis, 20, 11)

	dynamic := DynamicScenario(mis, 20, 12)

	linked := StaticScenario(mis, 10, 13)
	linked.UseLinks = true

	faulted := DynamicScenario(mis, 10, 14)
	faulted.UseLinks = true
	faulted.FaultProfile = fault.Profile{BER: 1e-4, DropProb: 0.01, StaleAfter: 5}

	odom := DynamicScenario(mis, 15, 15)
	odom.UseOdometry = true

	bumped := StaticScenario(mis, 20, 16)
	bumped.BumpAt = 10
	bumped.BumpMisalignment = geom.EulerDeg(3, -2, 0.5)

	anglesOnly := StaticScenario(mis, 10, 17)
	anglesOnly.Filter.EstimateBias = false
	anglesOnly.Filter.EstimateScale = false

	drift := DynamicScenario(mis, 15, 18)
	drift.NoiseDriftAt = 5
	drift.NoiseDriftFactor = 4
	drift.Filter.AdaptiveR.Enabled = true

	estStride := StaticScenario(mis, 10, 19)
	estStride.EstimateStride = 100

	return []Config{static, dynamic, linked, faulted, odom, bumped, anglesOnly, drift, estStride, static}
}

// TestRunnerMatchesRun drives one reused Runner through the full
// heterogeneous sequence and checks every run is deeply equal to a
// fresh Run of the same configuration — the reuse-equivalence contract
// the pooled serving path is built on.
func TestRunnerMatchesRun(t *testing.T) {
	r := NewRunner()
	res := new(Result)
	for k, cfg := range runnerTestConfigs() {
		cfg.ResidualStride = 50
		if err := r.RunInto(res, cfg); err != nil {
			t.Fatalf("scenario %d: RunInto: %v", k, err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("scenario %d: Run: %v", k, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("scenario %d: reused Runner result differs from fresh Run:\n got %+v\nwant %+v", k, res, want)
		}
	}
}

// TestRunnerInvalidFilterError pins the serving-layer contract: a bad
// filter configuration is an error, not a panic, and the Runner stays
// usable afterwards.
func TestRunnerInvalidFilterError(t *testing.T) {
	r := NewRunner()
	res := new(Result)
	good := StaticScenario(geom.EulerDeg(1, 1, 1), 5, 3)
	if err := r.RunInto(res, good); err != nil {
		t.Fatalf("good config: %v", err)
	}
	bad := good
	bad.Filter.MeasNoise = 0
	if err := r.RunInto(res, bad); err == nil {
		t.Fatal("RunInto accepted MeasNoise=0")
	}
	if err := r.RunInto(res, good); err != nil {
		t.Fatalf("Runner unusable after rejected config: %v", err)
	}
	want, _ := Run(good)
	if !reflect.DeepEqual(res, want) {
		t.Error("post-rejection run differs from fresh Run")
	}
}

// TestRunnerSteadyStateAllocFree pins the tentpole claim: a Runner in
// steady state — consecutive scenarios with the same filter layout, run
// into a recycled Result — performs zero heap allocations for the whole
// request, on the direct path, on a linked run with both kinds of wire
// fault injected (corruption generator and per-link channels), on a
// calibrated drive with vibration, which reads the shared truth table,
// and on that drive alternating with fleet's longest drive, which is
// too large to cache and must not evict the first drive's table.
func TestRunnerSteadyStateAllocFree(t *testing.T) {
	direct := StaticScenario(geom.EulerDeg(2, -1, 1), 2, 5)
	direct.Calibrate = false
	direct.ResidualStride = 10
	direct.EstimateStride = 50

	faulted := direct
	faulted.UseLinks = true
	faulted.LinkFaultProb = 0.05
	faulted.FaultProfile = fault.Profile{
		BER: 1e-4, DropProb: 0.01, DupProb: 0.005,
		BurstProb: 0.002, LineBreakProb: 0.001, JitterProb: 0.05,
	}

	dynamic := DynamicScenario(geom.EulerDeg(2, -1, 1), 2, 5)
	dynamic.Duration = 2
	dynamic.CalibrationTime = 2
	dynamic.ResidualStride = 10
	dynamic.EstimateStride = 50

	long := dynamic
	long.Profile = traj.CityDrive("dynamic-test", 600)

	for _, tc := range []struct {
		name string
		cfgs []Config // run in turn
	}{
		{"direct", []Config{direct}},
		{"linked-faulted", []Config{faulted}},
		{"dynamic", []Config{dynamic}},
		{"two drives", []Config{dynamic, long}},
	} {
		r := NewRunner()
		res := new(Result)
		for _, cfg := range tc.cfgs { // warm-up: builds the run objects
			if err := r.RunInto(res, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runs := 0
		allocs := testing.AllocsPerRun(20, func() {
			if err := r.RunInto(res, tc.cfgs[runs%len(tc.cfgs)]); err != nil {
				t.Fatal(err)
			}
			runs++
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state RunInto allocated %.1f times per run; want 0", tc.name, allocs)
		}
	}
}

// BenchmarkRunIntoTiny is the serving path's per-scenario fixed cost:
// static scenarios without calibration on a warm Runner, run as
// fleet's tiny specs are. The ops cycle the five durations 0.01–0.05 s
// (1 to 5 epochs), and each op takes a fresh seed and a fresh
// misalignment, up to ±5° per axis, from a table drawn with a fixed
// seed. So each op pays the instrument reseeds, the ACC's misalignment
// rotation and the estimator reset a served scenario does.
func BenchmarkRunIntoTiny(b *testing.B) {
	durs := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	cfgs := make([]Config, len(durs))
	for i, dur := range durs {
		cfgs[i] = StaticScenario(geom.Euler{}, dur, 1)
		cfgs[i].Calibrate = false
		cfgs[i].ResidualStride = -1
	}
	draw := rand.New(rand.NewSource(1))
	deg := func() float64 { return draw.Float64()*10 - 5 }
	mis := make([]geom.Euler, 1024)
	for i := range mis {
		mis[i] = geom.EulerDeg(deg(), deg(), deg())
	}
	r := NewRunner()
	res := new(Result)
	if err := r.RunInto(res, cfgs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := &cfgs[i%len(cfgs)]
		m := mis[i%len(mis)]
		cfg.TrueMisalignment, cfg.ACC.Misalignment = m, m
		cfg.Seed = int64(i)
		if err := r.RunInto(res, *cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunIntoDynamic is a served dynamic scenario: a 57-s city
// drive with vibration and the 30-s calibration, on a warm Runner with
// a fresh seed every op, so each op reads the drive's shared truth and
// pays the sensor noise and estimator work of a served scenario.
func BenchmarkRunIntoDynamic(b *testing.B) {
	cfg := DynamicScenario(geom.EulerDeg(2, -1, 1), 57, 1)
	cfg.ResidualStride = -1
	r := NewRunner()
	res := new(Result)
	if err := r.RunInto(res, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if err := r.RunInto(res, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunManyPartialErrors is the regression test for partial-batch
// semantics: failed scenarios report their batch index, healthy
// scenarios still produce results identical to a direct Run.
func TestRunManyPartialErrors(t *testing.T) {
	mis := geom.EulerDeg(1, -2, 1)
	cfgs := []Config{
		StaticScenario(mis, 5, 21),
		{}, // nil profile: must fail with index 1
		StaticScenario(mis, 5, 22),
		StaticScenario(mis, 5, 23),
	}
	cfgs[3].Filter.MeasNoise = -1 // invalid filter: must fail with index 3

	for _, workers := range []int{1, 2, 8} {
		results, err := RunMany(cfgs, workers)
		if err == nil {
			t.Fatalf("workers=%d: batch with bad scenarios returned nil error", workers)
		}
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: error is %T, want *BatchError", workers, err)
		}
		if be.Total != len(cfgs) || len(be.Failed) != 2 ||
			be.Failed[0].Index != 1 || be.Failed[1].Index != 3 {
			t.Fatalf("workers=%d: unexpected BatchError %+v", workers, be)
		}
		if results[1] != nil || results[3] != nil {
			t.Fatalf("workers=%d: failed slots must be nil", workers)
		}
		for _, i := range []int{0, 2} {
			want, werr := Run(cfgs[i])
			if werr != nil {
				t.Fatal(werr)
			}
			if results[i] == nil || !reflect.DeepEqual(results[i], want) {
				t.Errorf("workers=%d: surviving result %d differs from direct Run", workers, i)
			}
		}
		Recycle(results...)
	}
}

// TestRunManyBatchAllocs guards the pooled batch fan-out: with recycled
// result slots, the serial path's allocations are a small per-call
// constant (the dispatch closure), not per-scenario — amortised to
// well under one allocation per run.
func TestRunManyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates in the worker fan-out")
	}
	const batch = 8
	cfgs := make([]Config, batch)
	for i := range cfgs {
		cfgs[i] = StaticScenario(geom.EulerDeg(1, -1, 1), 1, int64(30+i))
		cfgs[i].Calibrate = false
		cfgs[i].ResidualStride = 10
	}
	results := make([]*Result, batch)
	// Warm-up fills the slots and the runner pool.
	if err := RunManyInto(results, cfgs, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := RunManyInto(results, cfgs, 1); err != nil {
			t.Fatal(err)
		}
	})
	// The serial dispatch costs a bounded handful of allocations per
	// CALL (closure capture for the worker function); the per-scenario
	// serving path itself is allocation-free.
	if allocs > 4 {
		t.Fatalf("serial RunManyInto allocated %.1f times per %d-run batch; want <= 4", allocs, batch)
	}
}
