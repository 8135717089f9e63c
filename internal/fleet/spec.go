// Package fleet is the batch serving layer: a server that accepts
// batches of scenario specifications — over HTTP/JSON for operability
// and over a compact length-prefixed binary protocol for throughput —
// shards them across a deterministic worker pool, and streams back
// telemetry and per-scenario results.
//
// The design target is 100k+ concurrently admitted scenarios on a
// bounded queue with explicit overload shedding, and a steady-state
// serving path (request decode → run → result encode) that performs
// zero heap allocations: specs are fixed-size values, frames are
// parsed in place, runs execute on per-worker pinned system.Runners,
// and results and batches are pooled. DESIGN.md §11 derives the cost
// model.
package fleet

import (
	"fmt"
	"math"
	"sync"

	"boresight/internal/geom"
	"boresight/internal/system"
	"boresight/internal/traj"
)

// Kind selects which of the paper's scenario families a spec runs.
type Kind uint8

const (
	// KindStatic is the tilting-platform static test (paper §11.1).
	KindStatic Kind = 1
	// KindDynamic is the city-drive dynamic test with vibration and
	// the matched (raised) measurement noise.
	KindDynamic Kind = 2
	// KindUntuned is the dynamic test with the static noise tuning —
	// the paper's Figure 8 misconfiguration.
	KindUntuned Kind = 3
)

// String names the kind as used by the JSON wire schema.
func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindDynamic:
		return "dynamic"
	case KindUntuned:
		return "untuned"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind is the inverse of String for the JSON schema.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "static":
		return KindStatic, nil
	case "dynamic":
		return KindDynamic, nil
	case "untuned":
		return KindUntuned, nil
	}
	return 0, fmt.Errorf("fleet: unknown scenario kind %q", s)
}

// ScenarioSpec is one scenario request: a fixed-size value (nothing to
// allocate when decoding) that expands deterministically into a full
// system.Config. Identical specs always produce byte-identical
// results, at any worker count — the replay contract.
type ScenarioSpec struct {
	// Kind selects the scenario family.
	Kind Kind
	// Tenant namespaces Seed: the effective run seed is
	// TenantSeed(Tenant, Seed), so identical requests from different
	// tenants draw decorrelated noise streams while each tenant can
	// replay its own runs exactly.
	Tenant uint32
	// Seed is the tenant-relative replay seed.
	Seed int64
	// Dur is the scenario duration in seconds (0 < Dur <= 600). Static
	// specs run Dur. Dynamic and untuned specs run the city drive,
	// whole passes of the route until they cover Dur
	// (traj.CityDriveDuration), so they run up to one pass longer.
	Dur float64
	// SampleRate is the fusion rate in Hz (default 100, max 1000).
	SampleRate float64
	// MisDeg is the true misalignment in degrees (roll, pitch, yaw).
	MisDeg [3]float64
	// EstimateStride keeps every n-th estimate snapshot (0 = none).
	EstimateStride uint16
	// NoCalibrate skips the pre-run bias calibration.
	NoCalibrate bool
}

// TenantSeed mixes a tenant ID into a replay seed with FNV-1a. The
// mixing is a pure function, so a tenant's runs replay exactly, but
// the avalanche decorrelates equal seeds across tenants.
func TenantSeed(tenant uint32, seed int64) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(tenant >> (8 * i)))
		h *= prime
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(uint64(seed) >> (8 * i)))
		h *= prime
	}
	return int64(h)
}

// Validate checks the spec's bounds: a spec that arrives over a wire
// must not be able to provision an unbounded amount of work.
func (sp ScenarioSpec) Validate() error {
	switch sp.Kind {
	case KindStatic, KindDynamic, KindUntuned:
	default:
		return fmt.Errorf("fleet: unknown scenario kind %d", sp.Kind)
	}
	if !(sp.Dur > 0) || sp.Dur > 600 {
		return fmt.Errorf("fleet: duration %g outside (0, 600] s", sp.Dur)
	}
	epochs, run, rate := sp.charge()
	if !(rate >= 1) || rate > 1000 {
		return fmt.Errorf("fleet: sample rate %g outside [1, 1000] Hz", rate)
	}
	if epochs > 600_000 {
		return fmt.Errorf("fleet: %g s (a %g-s drive) at %g Hz exceeds the per-scenario step budget", sp.Dur, run, rate)
	}
	for i, d := range sp.MisDeg {
		if math.IsNaN(d) || math.Abs(d) > 45 {
			return fmt.Errorf("fleet: misalignment axis %d = %g outside [-45, 45] deg", i, d)
		}
	}
	return nil
}

// charge returns the fusion epochs Validate holds to the per-scenario
// step budget: the run length in seconds (whole passes of the route for
// drive kinds) times the rate in Hz (100 when unset). It returns both
// factors too. Dur must already lie in (0, 600].
func (sp ScenarioSpec) charge() (epochs, run, rate float64) {
	rate = sp.SampleRate
	if rate == 0 {
		rate = 100
	}
	run = sp.Dur
	if sp.Kind != KindStatic {
		run = traj.CityDriveDuration(sp.Dur)
	}
	return run * rate, run, rate
}

// Config expands the spec into the exact system.Config a direct caller
// of system.Run would build — the replay tests hold this equivalence —
// with the result histories the serving path never reads disabled. It
// copies its kind's template and sets the fields the spec decides.
func (sp ScenarioSpec) Config() (system.Config, error) {
	if err := sp.Validate(); err != nil {
		return system.Config{}, err
	}
	mis := geom.EulerDeg(sp.MisDeg[0], sp.MisDeg[1], sp.MisDeg[2])
	cfg := kindConfigs[sp.Kind]
	cfg.Profile = profileFor(sp.Kind, sp.Dur)
	cfg.TrueMisalignment = mis
	cfg.ACC.Misalignment = mis
	cfg.Seed = TenantSeed(sp.Tenant, sp.Seed)
	if sp.SampleRate > 0 {
		cfg.SampleRate = sp.SampleRate
	}
	cfg.EstimateStride = int(sp.EstimateStride)
	cfg.Calibrate = !sp.NoCalibrate
	return cfg, nil
}

// kindConfigs holds each kind's system.Config before the spec's own
// fields are set: system.DefaultConfig with the kind's vibration and
// measurement noise, as the system package's scenario builders set
// them, and no result histories. Building it once keeps DefaultConfig
// and its instrument and filter defaults off the per-spec path.
var kindConfigs = func() (t [KindUntuned + 1]system.Config) {
	for _, k := range []Kind{KindStatic, KindDynamic, KindUntuned} {
		cfg := system.DefaultConfig(nil, geom.Euler{})
		switch k {
		case KindStatic:
			cfg.Filter.MeasNoise = 0.01
		case KindDynamic:
			cfg.Vibrate = true
			cfg.Filter.MeasNoise = 0.02
		case KindUntuned:
			cfg.Vibrate = true
			cfg.Filter.MeasNoise = 0.005
		}
		cfg.ResidualStride = -1 // serving results carry no histories
		t[k] = cfg
	}
	return t
}()

// Motion profiles depend only on (family, duration), are read-only
// once built, and are expensive enough to matter (the drive profile
// synthesises a segment schedule). The cache makes the steady-state
// decode path allocation-free: fleet workloads reuse a handful of
// durations, so after warm-up every Config hits the cache. The map is
// bounded — a wire peer cycling static durations degrades to
// per-request profile construction, never to unbounded server memory.
// A drive is keyed by the length CityDrive rounds dur up to, on which
// alone it depends, so every duration that builds the same drive
// shares one *traj.Drive, and with it one table of epoch truth in
// system. Drives are cached past the bound: Validate caps dur at 600 s,
// so there are at most 11 drive lengths, and a drive built per request
// would also build its truth table per request.
type profileKey struct {
	drive bool
	dur   float64
}

const profileCacheMax = 1024

var (
	profMu   sync.RWMutex
	profiles = make(map[profileKey]traj.Profile)
)

func profileFor(kind Kind, dur float64) traj.Profile {
	k := profileKey{drive: kind != KindStatic, dur: dur}
	if k.drive {
		k.dur = traj.CityDriveDuration(dur)
	}
	profMu.RLock()
	p := profiles[k]
	profMu.RUnlock()
	if p != nil {
		return p
	}
	p = buildProfile(k)
	profMu.Lock()
	if q := profiles[k]; q != nil {
		p = q // lost the build race; serve the cached one
	} else if k.drive || len(profiles) < profileCacheMax {
		profiles[k] = p
	}
	profMu.Unlock()
	return p
}

func buildProfile(k profileKey) traj.Profile {
	if k.drive {
		// Same label as system.DynamicScenario: the expansion must be
		// indistinguishable from the direct builders.
		return traj.CityDrive("dynamic-test", k.dur)
	}
	return system.StaticTestPoses(k.dur)
}
