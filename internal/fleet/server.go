package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"boresight/internal/parallel"
	"boresight/internal/system"
)

// ErrShed marks a scenario the admission layer refused — the explicit
// overload signal. Shedding is always per scenario: one refused
// scenario never fails a whole batch. ErrShed is the classification
// sentinel: concrete refusals wrap it (ErrQueueFull, ErrTenantCap), so
// callers must test errors.Is(err, ErrShed), never ==.
var ErrShed = errors.New("fleet: shed")

// ErrQueueFull is the global admission bound: the queue had no room.
var ErrQueueFull = fmt.Errorf("%w: queue full", ErrShed)

// ErrTenantCap is the per-tenant admission bound: the scenario's
// tenant already had TenantCap admitted-but-unfinished scenarios.
var ErrTenantCap = fmt.Errorf("%w: tenant inflight cap reached", ErrShed)

// ErrPanicked marks a scenario whose run panicked. The server recovers
// the panic into that scenario's error (StatusError), which names the
// panic value and the spec so the scenario can be replayed; the rest
// of the batch and the worker carry on.
var ErrPanicked = errors.New("fleet: scenario panicked")

// ServerConfig sizes a Server. The zero value of every field resolves
// to a serviceable default, so ServerConfig{} is a working server.
type ServerConfig struct {
	// Workers is the pool width (<= 0: one per CPU).
	Workers int
	// Depth bounds the total admitted-but-unstarted scenarios across
	// all tenants (minimum 1; default 1<<17).
	Depth int
	// Quantum is the DRR turn size: how many scenarios one tenant may
	// drain per scheduler turn while others wait (default 32).
	Quantum int
	// TenantCap bounds one tenant's admitted-but-unfinished scenarios;
	// 0 (the default) is unlimited — DRR alone then provides fairness
	// of service order, while the cap additionally bounds queue share.
	TenantCap int
	// MaxBatch bounds one binary-protocol batch's scenario count; a
	// peer exceeding it has its session torn down (default 1<<20).
	MaxBatch int
	// IdleTimeout tears down a binary session that delivers no frame
	// for this long (0, the default, disables the deadline).
	IdleTimeout time.Duration
	// TelemetryInterval is the default cadence of live mid-run
	// Telemetry frames on binary sessions; a client Hello may override
	// it. 0 resolves to 1s; sessions can only disable it by asking for
	// a huge interval.
	TelemetryInterval time.Duration
}

// withDefaults resolves zero fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.Depth < 1 {
		c.Depth = 1 << 17
	}
	if c.Quantum < 1 {
		c.Quantum = 32
	}
	if c.TenantCap < 0 {
		c.TenantCap = 0
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1 << 20
	}
	if c.TelemetryInterval <= 0 {
		c.TelemetryInterval = time.Second
	}
	return c
}

// Server shards scenario batches across a deterministic worker pool.
//
// Architecture: a parallel.FairPool of workers, each pinned to its own
// system.Runner for its whole lifetime, pulls per-scenario jobs from
// per-tenant queues drained deficit-round-robin. A job carries only
// (batch, index, tenant counters); the batch owns the spec and result
// storage, every job writes only its own index, and every random draw
// derives from the spec's tenant seed — so results are byte-identical
// at any worker count and any scheduling order (the parallel package's
// determinism contract, held by TestFleetReplay).
//
// Admission: Batch.Submit uses TrySubmit, so a refused scenario sheds
// immediately (a wrapped ErrShed naming which bound refused it)
// instead of converting overload into unbounded latency;
// Submit(block=true) is the backpressure form for callers that must
// not shed. Two bounds apply: the global queue depth (total resident
// concurrency — "100k concurrent scenarios" means 100k
// admitted-but-unstarted jobs at 16 bytes each) and the optional
// per-tenant inflight cap. Fairness of *order* comes from DRR: one
// tenant's 100k-scenario batch no longer puts every other tenant
// behind all 100k — each tenant with pending work gets Quantum
// scenarios of service per turn.
//
// Allocation: jobs, batches and results are pooled, workers reuse
// their Runner's scratch, per-tenant queues reuse their ring storage,
// and the wire layer encodes into caller buffers — in steady state a
// served batch allocates nothing (BenchmarkFleetThroughput pins 0
// allocs/op).
type Server struct {
	cfg     ServerConfig
	pool    *parallel.FairPool[*job]
	runners []*system.Runner
	// testRun, set only by tests, runs each expanded spec in place of
	// the worker Runner's RunInto, to inject a panic.
	testRun func(r *system.Runner, res *system.Result, cfg system.Config) error

	jobPool   sync.Pool
	batchPool sync.Pool

	admitted  atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	failed    atomic.Int64
	inflight  atomic.Int64
	peak      atomic.Int64

	tmu     sync.RWMutex
	tenants map[uint32]*tenantCounters
}

// tenantCounters is one tenant's admission accounting. Counters are
// atomics so the serve path updates them without the tenant-map lock.
type tenantCounters struct {
	admitted, completed, shed, failed atomic.Int64
	inflight, peak                    atomic.Int64
}

type job struct {
	batch *Batch
	idx   int
	tc    *tenantCounters
}

// NewServer starts a serving pool with default fairness settings.
// workers <= 0 resolves to the CPU count; depth is the global
// admission bound.
func NewServer(workers, depth int) *Server {
	return NewServerConfig(ServerConfig{Workers: workers, Depth: depth})
}

// NewServerConfig starts a serving pool sized by cfg.
func NewServerConfig(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg.withDefaults(), tenants: make(map[uint32]*tenantCounters)}
	s.jobPool.New = func() any { return new(job) }
	s.batchPool.New = func() any { return new(Batch) }
	s.pool = parallel.NewFairPool(cfg.Workers, s.cfg.Depth, s.cfg.Quantum, s.cfg.TenantCap, s.serve)
	s.cfg.Workers = s.pool.Workers()
	s.runners = make([]*system.Runner, s.pool.Workers())
	for i := range s.runners {
		s.runners[i] = system.NewRunner()
	}
	return s
}

// Config returns the resolved configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

// tenantFor returns (creating on first sight) a tenant's counters.
func (s *Server) tenantFor(tenant uint32) *tenantCounters {
	s.tmu.RLock()
	tc := s.tenants[tenant]
	s.tmu.RUnlock()
	if tc != nil {
		return tc
	}
	s.tmu.Lock()
	if tc = s.tenants[tenant]; tc == nil {
		tc = new(tenantCounters)
		s.tenants[tenant] = tc
	}
	s.tmu.Unlock()
	return tc
}

// serve runs one scenario on the worker's pinned Runner.
func (s *Server) serve(worker int, j *job) {
	b, i, tc := j.batch, j.idx, j.tc
	j.tc = nil
	s.jobPool.Put(j)
	res := b.results[i]
	if res == nil {
		res = system.GetResult()
		b.results[i] = res
	}
	if err := s.run(worker, res, b.specs[i]); err != nil {
		b.errs[i] = err
		s.failed.Add(1)
		tc.failed.Add(1)
	}
	s.completed.Add(1)
	tc.completed.Add(1)
	s.inflight.Add(-1)
	tc.inflight.Add(-1)
	b.wg.Done()
}

// run expands sp and runs it on the worker's Runner. A panic is
// recovered into an error wrapping ErrPanicked, and the worker gets a
// fresh Runner, since the panic may have left the old one half reset.
func (s *Server) run(worker int, res *system.Result, sp ScenarioSpec) (err error) {
	defer func() {
		if v := recover(); v != nil {
			s.runners[worker] = system.NewRunner()
			err = fmt.Errorf("%w: %v; spec %+v", ErrPanicked, v, sp)
		}
	}()
	cfg, err := sp.Config()
	if err != nil {
		return err
	}
	if s.testRun != nil {
		return s.testRun(s.runners[worker], res, cfg)
	}
	return s.runners[worker].RunInto(res, cfg)
}

// Close stops accepting work and blocks until every admitted scenario
// has finished — the graceful drain. The caller must stop submitting
// first (fleetd closes its listeners before calling Close). Idempotent.
func (s *Server) Close() { s.pool.Close() }

// Stats is a snapshot of the aggregate admission counters.
type Stats struct {
	Admitted, Completed, Shed, Failed int64
	// Inflight counts admitted-but-unfinished scenarios (queued or
	// running); PeakInflight is its high-water mark — the maximum
	// concurrency the server has actually sustained.
	Inflight, PeakInflight int64
	// Queued is the advisory queue occupancy; Workers and Depth are
	// the pool geometry; Quantum and TenantCap the fairness policy.
	Queued, Workers, Depth, Quantum, TenantCap int
	// Tenants counts the tenants the server has seen.
	Tenants int
}

// Stats returns a snapshot of the aggregate server counters.
func (s *Server) Stats() Stats {
	s.tmu.RLock()
	tenants := len(s.tenants)
	s.tmu.RUnlock()
	return Stats{
		Admitted:     s.admitted.Load(),
		Completed:    s.completed.Load(),
		Shed:         s.shed.Load(),
		Failed:       s.failed.Load(),
		Inflight:     s.inflight.Load(),
		PeakInflight: s.peak.Load(),
		Queued:       s.pool.Queued(),
		Workers:      s.pool.Workers(),
		Depth:        s.pool.Depth(),
		Quantum:      s.pool.Quantum(),
		TenantCap:    s.pool.TenantCap(),
		Tenants:      tenants,
	}
}

// TenantStats is one tenant's admission accounting snapshot.
type TenantStats struct {
	Tenant                            uint32
	Admitted, Completed, Shed, Failed int64
	Inflight, PeakInflight            int64
}

// PerTenant snapshots every tenant's counters, sorted by tenant ID.
// It allocates — it is the operability (/v1/stats) path, not the
// serving path.
func (s *Server) PerTenant() []TenantStats {
	s.tmu.RLock()
	rows := make([]TenantStats, 0, len(s.tenants))
	for tenant, tc := range s.tenants {
		rows = append(rows, TenantStats{
			Tenant:       tenant,
			Admitted:     tc.admitted.Load(),
			Completed:    tc.completed.Load(),
			Shed:         tc.shed.Load(),
			Failed:       tc.failed.Load(),
			Inflight:     tc.inflight.Load(),
			PeakInflight: tc.peak.Load(),
		})
	}
	s.tmu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })
	return rows
}

// Telemetry renders the aggregate counters as a wire snapshot. It
// stays allocation-free: per-tenant rows belong to /v1/stats, the wire
// frame carries the aggregate plus the tenant count.
func (s *Server) Telemetry() Telemetry {
	st := s.Stats()
	return Telemetry{
		Admitted: uint64(st.Admitted), Completed: uint64(st.Completed),
		Shed: uint64(st.Shed), Failed: uint64(st.Failed),
		Inflight: uint64(st.Inflight), Queued: uint64(st.Queued),
		PeakInflight: uint64(st.PeakInflight), Tenants: uint64(st.Tenants),
	}
}

// Batch is one request's worth of scenarios and their result storage.
// Batches are pooled: Release hands the batch and its result capacity
// back for the next request, which is what keeps the steady-state
// serving path allocation-free.
type Batch struct {
	srv     *Server
	specs   []ScenarioSpec
	results []*system.Result
	errs    []error
	wg      sync.WaitGroup
}

// NewBatch returns an empty (possibly recycled) batch.
func (s *Server) NewBatch() *Batch {
	b := s.batchPool.Get().(*Batch)
	b.srv = s
	return b
}

// Add appends one scenario to the batch. Recycled result capacity is
// reused in place: re-extending into the backing array picks up the
// pooled *Result pointers left there by Release.
func (b *Batch) Add(sp ScenarioSpec) {
	b.specs = append(b.specs, sp)
	if len(b.results) < cap(b.results) {
		b.results = b.results[:len(b.results)+1]
	} else {
		b.results = append(b.results, nil)
	}
	if len(b.errs) < cap(b.errs) {
		b.errs = b.errs[:len(b.errs)+1]
		b.errs[len(b.errs)-1] = nil
	} else {
		b.errs = append(b.errs, nil)
	}
}

// Len returns the number of scenarios added.
func (b *Batch) Len() int { return len(b.specs) }

// raisePeak lifts a high-water mark to cur if it is higher.
func raisePeak(peak *atomic.Int64, cur int64) {
	for {
		p := peak.Load()
		if cur <= p || peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// Submit hands every scenario to the pool under its tenant's queue.
// With block=false a refused scenario sheds (its error wraps ErrShed,
// naming the global queue bound or the tenant cap); with block=true
// submission waits for room on both bounds — backpressure instead of
// shedding. Returns the admitted and shed counts. Submit must not
// race with Server.Close.
func (b *Batch) Submit(block bool) (admitted, shed int) {
	s := b.srv
	for i := range b.specs {
		tenant := b.specs[i].Tenant
		tc := s.tenantFor(tenant)
		j := s.jobPool.Get().(*job)
		j.batch, j.idx, j.tc = b, i, tc
		b.wg.Add(1)
		s.inflight.Add(1)
		tc.inflight.Add(1)
		if block {
			s.pool.Submit(tenant, j)
		} else if ok, capped := s.pool.TrySubmit(tenant, j); !ok {
			j.tc = nil
			s.jobPool.Put(j)
			if capped {
				b.errs[i] = ErrTenantCap
			} else {
				b.errs[i] = ErrQueueFull
			}
			b.wg.Done()
			s.inflight.Add(-1)
			tc.inflight.Add(-1)
			s.shed.Add(1)
			tc.shed.Add(1)
			shed++
			continue
		}
		admitted++
		s.admitted.Add(1)
		tc.admitted.Add(1)
		raisePeak(&s.peak, s.inflight.Load())
		raisePeak(&tc.peak, tc.inflight.Load())
	}
	return admitted, shed
}

// Wait blocks until every admitted scenario of this batch has run.
func (b *Batch) Wait() { b.wg.Wait() }

// Err returns the scenario's failure: nil, an error wrapping ErrShed,
// or the run error. Results()[i] is meaningful only when Err(i) is nil.
func (b *Batch) Err(i int) error { return b.errs[i] }

// Status maps a scenario's outcome to its wire status byte. Shed
// classification uses errors.Is, so wrapped admission errors (and any
// future wrapping) classify correctly.
func (b *Batch) Status(i int) byte {
	err := b.errs[i]
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrShed):
		return StatusShed
	}
	return StatusError
}

// Results returns the per-scenario results, parallel to the specs.
// Entries whose Err is non-nil hold recycled storage, not a result.
func (b *Batch) Results() []*system.Result { return b.results }

// Spec returns the i-th submitted spec.
func (b *Batch) Spec(i int) ScenarioSpec { return b.specs[i] }

// Release recycles the batch. The result storage stays attached to the
// batch (truncated, pointers parked in the backing array) so the next
// request that reuses this batch runs into the same memory. The caller
// must not retain results after Release.
func (b *Batch) Release() {
	s := b.srv
	b.specs = b.specs[:0]
	b.results = b.results[:0]
	b.errs = b.errs[:0]
	b.srv = nil
	s.batchPool.Put(b)
}
