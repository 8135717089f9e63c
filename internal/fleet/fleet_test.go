package fleet

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"boresight/internal/geom"
	"boresight/internal/parallel"
	"boresight/internal/system"
	"boresight/internal/traj"
)

func geomFromDeg(d [3]float64) geom.Euler { return geom.EulerDeg(d[0], d[1], d[2]) }

func testSpecs(n int) []ScenarioSpec {
	kinds := []Kind{KindStatic, KindDynamic, KindUntuned}
	specs := make([]ScenarioSpec, n)
	for i := range specs {
		specs[i] = ScenarioSpec{
			Kind:        kinds[i%len(kinds)],
			Tenant:      uint32(i % 4),
			Seed:        int64(100 + i),
			Dur:         2,
			MisDeg:      [3]float64{2, -3, 1},
			NoCalibrate: i%2 == 0,
		}
	}
	return specs
}

// runBatch serves the specs through a fresh server at the given worker
// count and returns the encoded Result frames — the byte-level output
// a binary client would receive.
func runBatch(t *testing.T, specs []ScenarioSpec, workers int) []byte {
	t.Helper()
	s := NewServer(workers, len(specs)+1)
	defer s.Close()
	b := s.NewBatch()
	defer b.Release()
	for _, sp := range specs {
		b.Add(sp)
	}
	admitted, shed := b.Submit(false)
	if admitted != len(specs) || shed != 0 {
		t.Fatalf("admitted %d shed %d of %d", admitted, shed, len(specs))
	}
	b.Wait()
	var out []byte
	for i := range specs {
		if err := b.Err(i); err != nil {
			t.Fatalf("workers=%d scenario %d: %v", workers, i, err)
		}
		out = AppendResult(out, uint32(i), b.Status(i), b.Results()[i])
	}
	return out
}

// TestFleetReplay is the acceptance determinism test: replaying the
// same tenant-seeded specs through the server is byte-identical at
// every worker count, and matches a direct system.Run of the expanded
// config exactly.
func TestFleetReplay(t *testing.T) {
	specs := testSpecs(9)
	ref := runBatch(t, specs, 1)
	for _, workers := range []int{2, 8} {
		if got := runBatch(t, specs, workers); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: served result bytes differ from workers=1", workers)
		}
	}
	// Cross-check against the direct path.
	var direct []byte
	for i, sp := range specs {
		cfg, err := sp.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct = AppendResult(direct, uint32(i), StatusOK, res)
	}
	if !bytes.Equal(ref, direct) {
		t.Fatal("served result bytes differ from direct system.Run")
	}
}

// TestFleetShedding stalls the single worker behind a gate so the
// queue deterministically fills, and checks overflow scenarios shed
// explicitly (ErrShed, counted) while admitted ones still complete.
func TestFleetShedding(t *testing.T) {
	const depth = 4
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	// Hand-built server whose worker parks on the gate before serving;
	// everything else is the production path.
	s := &Server{
		cfg:     ServerConfig{}.withDefaults(),
		tenants: make(map[uint32]*tenantCounters),
	}
	s.jobPool.New = func() any { return new(job) }
	s.batchPool.New = func() any { return new(Batch) }
	s.runners = []*system.Runner{system.NewRunner()}
	s.pool = parallel.NewFairPool(1, depth, s.cfg.Quantum, 0, func(worker int, j *job) {
		once.Do(func() { close(started) })
		<-gate
		s.serve(worker, j)
	})
	defer s.Close()

	// One scenario to occupy the worker (dequeued, blocked on gate).
	stall := s.NewBatch()
	stall.Add(ScenarioSpec{Kind: KindStatic, Seed: 1, Dur: 1, NoCalibrate: true})
	if admitted, _ := stall.Submit(false); admitted != 1 {
		t.Fatal("stall scenario not admitted")
	}
	<-started // the worker now holds the stall job; the queue is empty

	b := s.NewBatch()
	const n = depth + 6
	for i := 0; i < n; i++ {
		b.Add(ScenarioSpec{Kind: KindStatic, Seed: int64(i), Dur: 1, NoCalibrate: true})
	}
	admitted, shed := b.Submit(false)
	if admitted != depth || shed != n-depth {
		t.Fatalf("admitted %d shed %d, want %d/%d", admitted, shed, depth, n-depth)
	}
	close(gate)
	b.Wait()
	stall.Wait()
	for i := 0; i < n; i++ {
		err := b.Err(i)
		if i < depth && err != nil {
			t.Errorf("admitted scenario %d failed: %v", i, err)
		}
		if i >= depth && !errors.Is(err, ErrShed) {
			t.Errorf("overflow scenario %d: err=%v, want a wrapped ErrShed", i, err)
		}
		if i >= depth && !errors.Is(err, ErrQueueFull) {
			t.Errorf("overflow scenario %d: err=%v, want ErrQueueFull", i, err)
		}
		if i >= depth && b.Status(i) != StatusShed {
			t.Errorf("overflow scenario %d: status=%d, want shed", i, b.Status(i))
		}
	}
	if st := s.Stats(); st.Shed != int64(n-depth) || st.PeakInflight < depth {
		t.Errorf("server stats %+v, want shed=%d peak>=%d", st, n-depth, depth)
	}
	stall.Release()
	b.Release()
}

// TestFleetDrain proves graceful shutdown: Close after Submit must
// complete every admitted scenario (run under -race in CI).
func TestFleetDrain(t *testing.T) {
	checkGoroutines(t)
	s := NewServer(4, 1<<10)
	b := s.NewBatch()
	const n = 64
	for i := 0; i < n; i++ {
		b.Add(ScenarioSpec{
			Kind: KindStatic, Tenant: 1, Seed: int64(i), Dur: 1,
			MisDeg: [3]float64{1, -1, 0}, NoCalibrate: true,
		})
	}
	admitted, shed := b.Submit(false)
	if admitted != n || shed != 0 {
		t.Fatalf("admitted %d shed %d", admitted, shed)
	}
	s.Close() // drain: must block until all 64 ran
	for i := 0; i < n; i++ {
		if err := b.Err(i); err != nil {
			t.Fatalf("scenario %d failed across drain: %v", i, err)
		}
		if b.Results()[i] == nil || b.Results()[i].Steps == 0 {
			t.Fatalf("scenario %d has no result after drain", i)
		}
	}
	if st := s.Stats(); st.Completed != n || st.Inflight != 0 {
		t.Fatalf("post-drain stats %+v", st)
	}
	b.Release()
}

// TestFleetBinarySession drives the production ServeConn loop over a
// net.Pipe: Hello handshake, two batches on one connection, telemetry
// interleaving, and per-frame integrity.
func TestFleetBinarySession(t *testing.T) {
	s := NewServer(2, 256)
	defer s.Close()
	client, srvEnd := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeConn(srvEnd)
	}()

	var p FrameParser
	readFrame := func() (byte, []byte) {
		t.Helper()
		buf := make([]byte, 4096)
		for {
			if typ, payload, ok := p.Next(); ok {
				cp := append([]byte(nil), payload...)
				return typ, cp
			}
			n, err := client.Read(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			p.Feed(buf[:n])
		}
	}

	// Handshake, asking for telemetry every 2 results and a mid-run
	// cadence far beyond the test's runtime, so the telemetry frame
	// count below stays exactly the result-boundary schedule.
	if _, err := client.Write(AppendHello(nil, 0, 2, 0, 3_600_000)); err != nil {
		t.Fatal(err)
	}
	typ, payload := readFrame()
	if typ != FrameHello {
		t.Fatalf("handshake reply type %#x", typ)
	}
	version, workers, every, depth, intervalMS, err := DecodeHello(payload)
	if err != nil || version != WireVersion || workers != 2 || every != 2 || depth != 256 ||
		intervalMS != 3_600_000 {
		t.Fatalf("hello reply v%d workers=%d every=%d depth=%d interval=%dms err=%v",
			version, workers, every, depth, intervalMS, err)
	}

	specs := testSpecs(5)
	for round := 0; round < 2; round++ {
		var req []byte
		for _, sp := range specs {
			req = AppendScenario(req, sp)
		}
		req = AppendBatchEnd(req, 0, 0)
		go client.Write(req) // net.Pipe is unbuffered: write concurrently

		var results []WireResult
		var telemetry int
	batch:
		for {
			typ, payload := readFrame()
			switch typ {
			case FrameResult:
				w, err := DecodeResult(payload)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, w)
			case FrameTelemetry:
				if _, err := DecodeTelemetry(payload); err != nil {
					t.Fatal(err)
				}
				telemetry++
			case FrameBatchEnd:
				admitted, shed, err := DecodeBatchEnd(payload)
				if err != nil || admitted != uint32(len(specs)) || shed != 0 {
					t.Fatalf("batchend admitted=%d shed=%d err=%v", admitted, shed, err)
				}
				break batch
			default:
				t.Fatalf("unexpected frame %#x", typ)
			}
		}
		// every=2 over 5 results: telemetry after results 2 and 4,
		// plus the final snapshot.
		if len(results) != len(specs) || telemetry != 3 {
			t.Fatalf("round %d: %d results, %d telemetry frames", round, len(results), telemetry)
		}
		for i, w := range results {
			if w.Index != uint32(i) || w.Status != StatusOK || w.Steps == 0 {
				t.Fatalf("round %d result %d: %+v", round, i, w)
			}
		}
	}
	client.Close()
	wg.Wait()
}

// TestConfigMatchesScenarioBuilders ties the fleet spec expansion to
// the system package's canonical scenario builders, so the serving
// layer cannot drift from what direct experiment code runs.
func TestConfigMatchesScenarioBuilders(t *testing.T) {
	sp := ScenarioSpec{Kind: KindStatic, Tenant: 3, Seed: 7, Dur: 5, MisDeg: [3]float64{2, -3, 1}}
	got, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := system.StaticScenario(geomFromDeg(sp.MisDeg), sp.Dur, TenantSeed(3, 7))
	want.ResidualStride = -1
	if !reflect.DeepEqual(got, want) {
		t.Errorf("static spec config differs from system.StaticScenario:\n got %+v\nwant %+v", got, want)
	}

	sp.Kind = KindDynamic
	got, err = sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	want = system.DynamicScenario(geomFromDeg(sp.MisDeg), sp.Dur, TenantSeed(3, 7))
	want.ResidualStride = -1
	if !reflect.DeepEqual(got, want) {
		t.Error("dynamic spec config differs from system.DynamicScenario")
	}

	sp.Kind = KindUntuned
	got, err = sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	want = system.DynamicScenarioUntuned(geomFromDeg(sp.MisDeg), sp.Dur, TenantSeed(3, 7))
	want.ResidualStride = -1
	if !reflect.DeepEqual(got, want) {
		t.Error("untuned spec config differs from system.DynamicScenarioUntuned")
	}
}

// TestDriveDurationsShareProfile pins the profile cache's drive key:
// CityDrive depends on Dur only through the length it rounds Dur up
// to, so dynamic specs of 5 s and 45 s expand to one *traj.Drive, and
// share one truth table in system.
func TestDriveDurationsShareProfile(t *testing.T) {
	profile := func(kind Kind, dur float64) traj.Profile {
		t.Helper()
		cfg, err := ScenarioSpec{Kind: kind, Dur: dur}.Config()
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Profile
	}
	d5, d45 := profile(KindDynamic, 5), profile(KindDynamic, 45)
	if _, ok := d5.(*traj.Drive); !ok || d5 != d45 {
		t.Errorf("Dur 5 and Dur 45 expand to %p and %p, want one *traj.Drive", d5, d45)
	}
	if profile(KindUntuned, 45) != d5 {
		t.Error("untuned and dynamic specs of one length expand to different drives")
	}
	if profile(KindDynamic, 58) == d5 {
		t.Error("Dur 58 shares the 57-s drive")
	}
}

// TestDrivesCachedPastBound fills the profile cache with static
// durations, as a peer cycling them would: dynamic specs must still
// share one *traj.Drive per length, and with it one truth table.
func TestDrivesCachedPastBound(t *testing.T) {
	profMu.Lock()
	saved := profiles
	profiles = make(map[profileKey]traj.Profile, profileCacheMax)
	for i := 0; i < profileCacheMax; i++ {
		profiles[profileKey{dur: float64(i) + 0.5}] = traj.StaticPose{}
	}
	profMu.Unlock()
	defer func() {
		profMu.Lock()
		profiles = saved
		profMu.Unlock()
	}()
	if a, b := profileFor(KindDynamic, 120), profileFor(KindDynamic, 130); a != b {
		t.Errorf("with the cache full, Dur 120 and Dur 130 expand to %p and %p, want one drive", a, b)
	}
}

// TestServePanicContained injects a panic into one scenario's run. It
// must come back as that scenario's error, wrapping ErrPanicked and
// naming the spec, and count as failed for its tenant, while the rest
// of the batch and the next batch complete on the one FairPool worker,
// which gets a fresh Runner.
func TestServePanicContained(t *testing.T) {
	checkGoroutines(t)
	s := NewServer(1, 64)
	defer s.Close()
	specs := testSpecs(8)
	const bad = 3
	specs[bad].Seed = 666
	badSeed := TenantSeed(specs[bad].Tenant, specs[bad].Seed)
	s.testRun = func(r *system.Runner, res *system.Result, cfg system.Config) error {
		if cfg.Seed == badSeed {
			panic("injected fault")
		}
		return r.RunInto(res, cfg)
	}
	runner := s.runners[0]

	serve := func(specs []ScenarioSpec, panicAt int) {
		t.Helper()
		b := s.NewBatch()
		defer b.Release()
		for _, sp := range specs {
			b.Add(sp)
		}
		b.Submit(true)
		b.Wait()
		for i, sp := range specs {
			err := b.Err(i)
			if i == panicAt {
				if !errors.Is(err, ErrPanicked) || b.Status(i) != StatusError ||
					!strings.Contains(err.Error(), "injected fault") || !strings.Contains(err.Error(), "Seed:666") {
					t.Errorf("scenario %d: got status %d, error %v; want a StatusError wrapping ErrPanicked that names the spec", i, b.Status(i), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("scenario %d: %v", i, err)
			}
			cfg, _ := sp.Config()
			want, err := system.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendResult(nil, 0, b.Status(i), b.Results()[i]); !bytes.Equal(got, AppendResult(nil, 0, StatusOK, want)) {
				t.Errorf("scenario %d: served result differs from a direct run", i)
			}
		}
	}
	serve(specs, bad)
	if s.runners[0] == runner {
		t.Error("the worker kept the Runner that panicked")
	}
	serve(testSpecs(8), -1)

	st := s.Stats()
	if st.Completed != 16 || st.Failed != 1 || st.Inflight != 0 {
		t.Errorf("stats %+v: want 16 completed, 1 failed, 0 inflight", st)
	}
	for _, ts := range s.PerTenant() {
		want := int64(0)
		if ts.Tenant == specs[bad].Tenant {
			want = 1
		}
		if ts.Failed != want {
			t.Errorf("tenant %d: %d failed, want %d", ts.Tenant, ts.Failed, want)
		}
	}
}

// TestTenantSeedDecorrelates pins the tenant mixing: same seed under
// different tenants must map to different run seeds, and the mixing
// must be stable (replayability depends on it).
func TestTenantSeedDecorrelates(t *testing.T) {
	if TenantSeed(1, 42) == TenantSeed(2, 42) {
		t.Error("tenants 1 and 2 share a run seed")
	}
	if TenantSeed(1, 42) != TenantSeed(1, 42) {
		t.Error("tenant seed is not a pure function")
	}
	seen := map[int64]bool{}
	for tenant := uint32(0); tenant < 100; tenant++ {
		s := TenantSeed(tenant, 7)
		if seen[s] {
			t.Fatalf("tenant %d collides", tenant)
		}
		seen[s] = true
	}
}

// TestSpecValidate covers the admission bounds.
func TestSpecValidate(t *testing.T) {
	good := ScenarioSpec{Kind: KindStatic, Dur: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ScenarioSpec{
		{Kind: 0, Dur: 10},
		{Kind: KindStatic, Dur: 0},
		{Kind: KindStatic, Dur: -1},
		{Kind: KindStatic, Dur: 601},
		{Kind: KindStatic, Dur: 10, SampleRate: 2000},
		{Kind: KindStatic, Dur: 600, SampleRate: 1000.5},
		{Kind: KindStatic, Dur: 10, MisDeg: [3]float64{50, 0, 0}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, sp)
		}
	}
}
