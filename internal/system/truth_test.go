package system

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"boresight/internal/geom"
	"boresight/internal/traj"
)

// truthCase is one configuration change applied both to a run on a
// shared drive, whose truth table runs share, and to a run on a fresh
// build of the same drive that evaluates truth epoch by epoch.
type truthCase struct {
	name  string
	other bool // run the second drive instead of the city drive
	edit  func(*Config)
}

// uncached hides a drive's type from the truth cache, so a run on it
// takes the uncached path: the reference the shared tables must match.
type uncached struct{ traj.Profile }

// checkSharedTruth runs each case on one Runner over the shared drives
// and checks it deep-equals the same case on freshly built drives.
func checkSharedTruth(t *testing.T, base Config, cases []truthCase) {
	t.Helper()
	newCity := func() *traj.Drive { return traj.CityDrive("dynamic-test", 20) }
	newOther := func() *traj.Drive {
		return traj.NewDrive("other", []traj.Segment{{Dur: 12, LongAccel: 1.2}, {Dur: 20, TurnRate: 0.15}})
	}
	city, other := newCity(), newOther()
	r := NewRunner()
	res := new(Result)
	for _, c := range cases {
		cfg, ref := base, base
		cfg.Profile, ref.Profile = city, uncached{newCity()}
		if c.other {
			cfg.Profile, ref.Profile = other, uncached{newOther()}
		}
		c.edit(&cfg)
		c.edit(&ref)
		if err := r.RunInto(res, cfg); err != nil {
			t.Fatalf("%s: RunInto: %v", c.name, err)
		}
		want, err := Run(ref)
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: run on the shared drive differs from a fresh drive:\n got %+v\nwant %+v", c.name, res, want)
		}
	}
}

// TestTruthTablesKeyEveryField runs configurations that share one
// *traj.Drive but differ in each field of the truth-table key. Every
// case after the first differs from an earlier one in exactly one key
// field, so a key without that field would hand it the earlier table:
// the wrong dt, vibration or drive, or, for the epoch count, a table
// too short for the run.
func TestTruthTablesKeyEveryField(t *testing.T) {
	base := DynamicScenario(geom.EulerDeg(2, -3, 1), 20, 41)
	base.Calibrate = false
	base.ResidualStride = 25
	base.Duration = 10
	louder := traj.DefaultVibration()
	louder.EngineAmp *= 3
	checkSharedTruth(t, base, []truthCase{
		{"5 s", false, func(c *Config) { c.Duration = 5 }},
		{"10 s", false, func(c *Config) {}},
		{"no vibration", false, func(c *Config) { c.Vibrate = false }},
		{"louder vibration", false, func(c *Config) { c.Vibration = louder }},
		{"50 Hz", false, func(c *Config) { c.SampleRate, c.Duration = 50, 20 }},
		{"other drive", true, func(c *Config) {}},
	})
}

// TestTruthTableReaders covers the runs around the tables: a run whose
// table would take too much of the cache takes the uncached path, and
// runs that read
// the cached table's speed (odometry) or change the sensor mid-run (a
// bump) match fresh drives.
func TestTruthTableReaders(t *testing.T) {
	base := DynamicScenario(geom.EulerDeg(1, 2, -1), 20, 42)
	base.Calibrate = false
	base.ResidualStride = 25
	base.Duration = 10

	pastBound := func(c *Config) {
		c.Profile = traj.CityDrive("dynamic-test", 70)
		c.SampleRate, c.Duration = 1000, 66
	}
	long := base
	pastBound(&long)
	if n := int(long.Duration * long.SampleRate); truthTable(&long, 1/long.SampleRate, n) != nil {
		t.Fatalf("a %d-epoch run got a table; the bound is %d B", n, maxTruthBytes)
	}

	checkSharedTruth(t, base, []truthCase{
		{"plain", false, func(c *Config) {}},
		{"odometry", false, func(c *Config) { c.UseOdometry = true }},
		{"bump", false, func(c *Config) {
			c.BumpAt = 4
			c.BumpMisalignment = geom.EulerDeg(3, -2, 0.5)
		}},
		{"past the bound", false, pastBound},
	})
}

// TestStaticTruthMatchesTruthAt holds a Runner's pose cache to
// truthAt: every epoch of a static run reads truthAt's bits. The cases
// take more poses than the cache holds, poses that differ only in the
// sign of a zero angle, vibration, and sequences without poses or
// dwell. Four cases form a chain in which each case's poses differ
// from the previous case's, slot for slot, in one angle alone, so a
// slot compared on fewer than all three angles serves a stale force.
// The cases run on one Runner, each static run followed by a drive
// run, twice over, so the cache starts each case holding other
// sequences' poses. Each run must also deep-equal a run that takes the
// uncached path.
func TestStaticTruthMatchesTruthAt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	many := make([]geom.Euler, poseCacheLen+3)
	for i := range many {
		many[i] = geom.EulerDeg(float64(3*i-10), float64(7-2*i), float64(i))
	}
	signed := []geom.Euler{{Yaw: math.Pi}, {Roll: negZero, Yaw: math.Pi}, {}, {Roll: negZero, Pitch: negZero, Yaw: negZero}}
	// chain(k) turns the first k of (roll, pitch, yaw) by 0.05 rad.
	chain := func(k int) traj.PoseSequence {
		a := [3]float64{0.1, -0.2, 0.3}
		for i := range k {
			a[i] += 0.05
		}
		return traj.PoseSequence{Dwell: 1, Poses: []geom.Euler{
			{Roll: a[0], Pitch: a[1], Yaw: a[2]},
			{Roll: -a[0], Pitch: 2 * a[1], Yaw: a[2] + 1},
		}}
	}
	cases := []struct {
		name    string
		seq     traj.PoseSequence
		vibrate bool
	}{
		{"static test", StaticTestPoses(2), false},
		{"more poses than the cache", traj.PoseSequence{Poses: many, Dwell: 0.15}, false},
		{"signed zeros", traj.PoseSequence{Poses: signed, Dwell: 0.3}, false},
		{"chain", chain(0), false},
		{"chain, roll turned", chain(1), false},
		{"chain, pitch turned", chain(2), false},
		{"chain, yaw turned", chain(3), false},
		{"vibrating", traj.PoseSequence{Poses: many[:4], Dwell: 0.5}, true},
		{"no poses", traj.PoseSequence{Dwell: 0.5}, true},
		{"no dwell", traj.PoseSequence{Poses: many[:3]}, false},
	}
	drive := DynamicScenario(geom.EulerDeg(1, -1, 2), 20, 50)
	drive.Calibrate = false
	drive.Duration = 1
	wantDrive, err := Run(drive)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	res := new(Result)
	for round := 0; round < 2; round++ {
		for k, c := range cases {
			cfg := StaticScenario(geom.EulerDeg(2, -1, 1), 2, int64(60+k))
			cfg.Profile, cfg.Vibrate = c.seq, c.vibrate
			cfg.Calibrate = false
			cfg.ResidualStride = 20
			ref := cfg
			ref.Profile = uncached{c.seq}
			if err := r.RunInto(res, cfg); err != nil {
				t.Fatalf("%s: RunInto: %v", c.name, err)
			}
			want, err := Run(ref)
			if err != nil {
				t.Fatalf("%s: Run: %v", c.name, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: run differs from the uncached path:\n got %+v\nwant %+v", c.name, res, want)
			}
			// Every epoch of a 2-s run at 100 Hz, which a sequence
			// without poses or dwell (0 s long) does not run.
			for i := 0; i < 200; i++ {
				tm := float64(i) * 0.01
				got := r.poses.truth(c.seq, c.vibrate, cfg.Vibration, tm)
				if want := truthAt(c.seq, c.vibrate, cfg.Vibration, tm); !sameTruth(got, want) {
					t.Fatalf("%s: epoch %d: cached truth %+v, truthAt %+v", c.name, i, got, want)
				}
			}
			if err := r.RunInto(res, drive); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, wantDrive) {
				t.Errorf("%s: the drive run after it differs from a fresh Run", c.name)
			}
		}
	}
}

// sameTruth reports whether two epoch truths have the same bits.
func sameTruth(a, b epochTruth) bool {
	bits := func(e epochTruth) (u [8]uint64) {
		for i := range 3 {
			u[i], u[3+i] = math.Float64bits(e.f[i]), math.Float64bits(e.w[i])
		}
		u[6], u[7] = math.Float64bits(e.speed), math.Float64bits(e.t)
		return u
	}
	return bits(a) == bits(b)
}

// TestTruthTableConcurrentBuild runs one configuration on one fresh
// drive from several goroutines at once, so their table builds race:
// every run must match the uncached path, and one table is published.
func TestTruthTableConcurrentBuild(t *testing.T) {
	cfg := DynamicScenario(geom.EulerDeg(1, -2, 1), 20, 43)
	cfg.Calibrate = false
	cfg.ResidualStride = 25
	cfg.Duration = 5
	ref := cfg
	ref.Profile = uncached{cfg.Profile}
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = Run(cfg)
		}()
	}
	wg.Wait()
	for w, res := range results {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("worker %d: run differs from the uncached path", w)
		}
	}
	truthMu.RLock()
	tables := 0
	for k := range truthTables {
		if k.drive == cfg.Profile {
			tables++
		}
	}
	truthMu.RUnlock()
	if tables != 1 {
		t.Errorf("%d tables published for one key, want 1", tables)
	}
}

// truthHeld returns the bytes charged to the cached tables.
func truthHeld() int {
	truthMu.RLock()
	defer truthMu.RUnlock()
	return truthBytes
}

// TestTruthCacheBound fills the cache past maxTruthBytes with drives
// seen once: the bytes charged never pass the bound, and the table just
// built is the one served next. A run on fleet's longest drive, charged
// past a quarter of the bound for the drive alone, gets no table and
// evicts none.
func TestTruthCacheBound(t *testing.T) {
	cfg := DynamicScenario(geom.EulerDeg(1, 1, 1), 60, 1)
	const n = 6000 // 60 s at 100 Hz
	var tab []epochTruth
	for k := 0; k < 12; k++ {
		cfg.Profile = traj.CityDrive("dynamic-test", 100)
		tab = truthTable(&cfg, 0.01, n)
		if len(tab) != n {
			t.Fatalf("drive %d: table of %d epochs, want %d", k, len(tab), n)
		}
		if held := truthHeld(); held > maxTruthBytes {
			t.Fatalf("drive %d: cache charged %d B, bound %d B", k, held, maxTruthBytes)
		}
		if again := truthTable(&cfg, 0.01, n); &again[0] != &tab[0] {
			t.Fatalf("drive %d: the table just built was not served again", k)
		}
	}
	long := cfg
	long.Profile = traj.CityDrive("dynamic-test", 600)
	if truthTable(&long, 0.01, 100) != nil {
		t.Fatalf("a run on a %d-B drive got a table; a table may take %d B", long.Profile.(*traj.Drive).HeapBytes(), maxTruthBytes/4)
	}
	if again := truthTable(&cfg, 0.01, n); &again[0] != &tab[0] {
		t.Fatal("a run on the long drive evicted the cached table")
	}
}

// TestTruthCacheHeldBytes runs fresh drives through the cache at 1 Hz.
// Their tables are small, but each key keeps its drive alive: the live
// heap the cache holds must stay within maxTruthBytes however many
// drives pass through.
func TestTruthCacheHeldBytes(t *testing.T) {
	truthMu.Lock()
	clear(truthTables)
	truthBytes = 0
	truthMu.Unlock()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	cfg := DynamicScenario(geom.EulerDeg(1, 1, 1), 300, 1)
	for k := 0; k < 16; k++ {
		cfg.Profile = traj.CityDrive("dynamic-test", 300) // 342 s, 824 KB
		if truthTable(&cfg, 1, 300) == nil {
			t.Fatalf("drive %d got no table", k)
		}
	}
	cfg.Profile = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if held := int64(ms.HeapAlloc) - int64(base); held > maxTruthBytes+1<<18 {
		t.Fatalf("the cache holds %d B of live heap after 16 drives; the bound is %d B", held, maxTruthBytes)
	}
}
