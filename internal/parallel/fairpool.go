package parallel

import "sync"

// FairPool is a fixed set of workers serving an unbounded stream of
// typed jobs — the long-running counterpart of For, for a serving
// process that accepts work forever. Admission is bounded, so overload
// shows as an explicit shed rather than as latency, and jobs wait in
// per-tenant queues drained deficit-round-robin. With one FIFO, a
// tenant that lands a 100k-job batch puts every later arrival
// behind all 100k; with DRR, each tenant with pending work gets at
// most `quantum` jobs of service per scheduler turn, so a small
// tenant's wait is bounded by (active tenants × quantum × job cost /
// workers) — a constant of the configuration, not of the biggest
// resident batch. Jobs are unit-cost here (one scenario each), so the
// deficit counter counts jobs rather than bytes; the turn discipline
// is otherwise the classic DRR one: a queue's deficit refills by
// quantum when its turn starts, each served job spends one, and an
// emptied queue forfeits its remaining deficit.
//
// Two admission bounds apply, both explicit overload surfaces:
//
//   - depth bounds the total queued jobs across all tenants (the
//     global memory bound);
//   - tenantCap (0 = unlimited) bounds one tenant's *outstanding*
//     jobs — queued plus running — so a single tenant cannot own the
//     whole queue even when it is otherwise idle.
//
// TrySubmit sheds on either bound (reporting which); Submit blocks on
// either bound — backpressure for callers that must not shed.
//
// The determinism contract is For's, sharpened for worker identity: a
// job reads only its own inputs and writes only its own storage, and
// the worker index passed to serve may address only per-worker scratch
// (a reusable runner) whose contents never influence a job's output.
// Scheduling order — which DRR changes relative to FIFO — therefore
// cannot change any job's bytes; the fleet replay tests assert this at
// several worker counts. Jobs are typed, not closures, so a pooled job
// object keeps a zero-allocation serving path zero-allocation.
type FairPool[J any] struct {
	mu    sync.Mutex
	work  sync.Cond // workers wait here while queued == 0
	space sync.Cond // blocking submitters wait here for depth/cap room

	queues map[uint32]*fairQueue[J]
	tail   *fairQueue[J] // circular active ring; tail.next is served next
	queued int           // total queued (submitted, not yet picked up)

	depth     int
	quantum   int
	tenantCap int
	w         int
	closed    bool
	wg        sync.WaitGroup
}

// fairQueue is one tenant's pending-job ring plus its DRR state. The
// ring storage grows to a tenant's high-water mark and is then reused,
// so the steady-state submit path allocates nothing.
type fairQueue[J any] struct {
	tenant      uint32
	jobs        []J // ring buffer backing
	head, n     int
	deficit     int           // jobs this tenant may still drain this turn
	outstanding int           // queued + running (the tenantCap unit)
	next        *fairQueue[J] // active-ring link (nil when inactive)
	active      bool
}

func (q *fairQueue[J]) push(j J) {
	if q.n == len(q.jobs) {
		grown := make([]J, max(4, 2*len(q.jobs)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.jobs[(q.head+i)%len(q.jobs)]
		}
		q.jobs, q.head = grown, 0
	}
	q.jobs[(q.head+q.n)%len(q.jobs)] = j
	q.n++
}

func (q *fairQueue[J]) pop() J {
	j := q.jobs[q.head]
	var zero J
	q.jobs[q.head] = zero // release the reference to the scheduler's copy
	q.head = (q.head + 1) % len(q.jobs)
	q.n--
	return j
}

// fairIdleMax bounds how many idle tenant queues the pool retains for
// reuse. Below the bound, a returning tenant finds its queue (and ring
// storage) still warm; above it, fully idle queues are dropped on
// completion so a peer cycling through the uint32 tenant space cannot
// grow server memory without bound.
const fairIdleMax = 1024

// NewFairPool starts a fair pool. workers resolves via Resolve; depth
// (minimum 1) bounds total queued jobs; quantum (minimum 1) is the DRR
// turn size in jobs; tenantCap (0 = unlimited) bounds one tenant's
// outstanding jobs. serve runs as serve(worker, job), worker in
// [0, Workers()); panics are not recovered.
func NewFairPool[J any](workers, depth, quantum, tenantCap int, serve func(worker int, job J)) *FairPool[J] {
	if depth < 1 {
		depth = 1
	}
	if quantum < 1 {
		quantum = 1
	}
	if tenantCap < 0 {
		tenantCap = 0
	}
	p := &FairPool[J]{
		queues:    make(map[uint32]*fairQueue[J]),
		depth:     depth,
		quantum:   quantum,
		tenantCap: tenantCap,
		w:         Resolve(workers),
	}
	p.work.L = &p.mu
	p.space.L = &p.mu
	p.wg.Add(p.w)
	for k := 0; k < p.w; k++ {
		go func(worker int) {
			defer p.wg.Done()
			for {
				p.mu.Lock()
				for p.queued == 0 && !p.closed {
					p.work.Wait()
				}
				if p.queued == 0 {
					p.mu.Unlock()
					return
				}
				q, job := p.popLocked()
				p.mu.Unlock()
				p.space.Signal() // queue room freed by the pop
				serve(worker, job)
				p.mu.Lock()
				q.outstanding--
				p.releaseLocked(q)
				p.mu.Unlock()
				p.space.Broadcast() // tenant-cap room freed by completion
			}
		}(k)
	}
	return p
}

// popLocked removes and returns the next job under the DRR discipline.
// Invariant: the active ring holds exactly the queues with n > 0, so
// when queued > 0 the ring is non-empty and its head has a job.
func (p *FairPool[J]) popLocked() (*fairQueue[J], J) {
	head := p.tail.next
	if head.deficit <= 0 {
		head.deficit = p.quantum // this tenant's turn begins
	}
	job := head.pop()
	p.queued--
	head.deficit--
	if head.n == 0 {
		head.deficit = 0 // an emptied queue forfeits its turn
		p.deactivateHeadLocked(head)
	} else if head.deficit == 0 {
		p.tail = head // turn spent: rotate to the next tenant
	}
	return head, job
}

// activateLocked appends q at the tail of the active ring.
func (p *FairPool[J]) activateLocked(q *fairQueue[J]) {
	if p.tail == nil {
		q.next = q
	} else {
		q.next = p.tail.next
		p.tail.next = q
	}
	p.tail = q
	q.active = true
}

// deactivateHeadLocked unlinks the ring head (tail.next) — the only
// position pops happen at, which keeps removal O(1) on a singly linked
// ring.
func (p *FairPool[J]) deactivateHeadLocked(head *fairQueue[J]) {
	if head == p.tail {
		p.tail = nil
	} else {
		p.tail.next = head.next
	}
	head.next = nil
	head.active = false
}

// releaseLocked drops a fully idle queue once the idle set exceeds the
// retention bound.
func (p *FairPool[J]) releaseLocked(q *fairQueue[J]) {
	if !q.active && q.n == 0 && q.outstanding == 0 && len(p.queues) > fairIdleMax {
		delete(p.queues, q.tenant)
	}
}

func (p *FairPool[J]) queueForLocked(tenant uint32) *fairQueue[J] {
	q := p.queues[tenant]
	if q == nil {
		q = &fairQueue[J]{tenant: tenant}
		p.queues[tenant] = q
	}
	return q
}

func (p *FairPool[J]) enqueueLocked(q *fairQueue[J], job J) {
	q.push(job)
	q.outstanding++
	p.queued++
	if !q.active {
		p.activateLocked(q)
	}
}

// TrySubmit enqueues without blocking. ok=false means the job was
// refused; tenantCapped then distinguishes the per-tenant cap from the
// global queue bound. Submitting after Close panics.
func (p *FairPool[J]) TrySubmit(tenant uint32, job J) (ok, tenantCapped bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("parallel: TrySubmit on closed FairPool")
	}
	if p.queued >= p.depth {
		p.mu.Unlock()
		return false, false
	}
	q := p.queueForLocked(tenant)
	if p.tenantCap > 0 && q.outstanding >= p.tenantCap {
		p.mu.Unlock()
		return false, true
	}
	p.enqueueLocked(q, job)
	p.mu.Unlock()
	p.work.Signal()
	return true, false
}

// Submit enqueues, blocking while the global queue is full or the
// job's tenant is at its outstanding cap — the backpressure form. The
// tenant queue is re-fetched after every wait because a fully idle
// queue may be dropped and recreated while the submitter sleeps.
func (p *FairPool[J]) Submit(tenant uint32, job J) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			panic("parallel: Submit on closed FairPool")
		}
		q := p.queueForLocked(tenant)
		if p.queued < p.depth && (p.tenantCap == 0 || q.outstanding < p.tenantCap) {
			p.enqueueLocked(q, job)
			p.mu.Unlock()
			p.work.Signal()
			return
		}
		p.space.Wait()
	}
}

// Workers returns the resolved worker count.
func (p *FairPool[J]) Workers() int { return p.w }

// Depth returns the global queued-job bound.
func (p *FairPool[J]) Depth() int { return p.depth }

// Quantum returns the DRR turn size in jobs.
func (p *FairPool[J]) Quantum() int { return p.quantum }

// TenantCap returns the per-tenant outstanding bound (0 = unlimited).
func (p *FairPool[J]) TenantCap() int { return p.tenantCap }

// Queued returns the total queued (not yet picked up) jobs. Advisory:
// it races with the workers by nature.
func (p *FairPool[J]) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// TenantOutstanding returns one tenant's queued+running job count.
func (p *FairPool[J]) TenantOutstanding(tenant uint32) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if q := p.queues[tenant]; q != nil {
		return q.outstanding
	}
	return 0
}

// Tenants returns the number of tenant queues currently resident
// (active, running, or retained idle).
func (p *FairPool[J]) Tenants() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queues)
}

// Close stops admission and blocks until every queued job has been
// served and all workers have exited. Blocked Submit calls are woken
// (and panic), matching the contract that submission stops before the
// drain. Idempotent.
func (p *FairPool[J]) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.work.Broadcast()
		p.space.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
