package fleet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"boresight/internal/parallel"
	"boresight/internal/system"
)

// pipeSession starts ServeConn on one end of a net.Pipe and returns
// the client end plus a wait function for the serving goroutine.
func pipeSession(s *Server) (client net.Conn, wait func()) {
	client, srvEnd := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ServeConn(srvEnd)
	}()
	return client, wg.Wait
}

// checkGoroutines records the goroutine count at the start of a test
// and, once the test and its deferred teardown have returned, waits a
// few seconds for the count to fall back to it: a session, worker or
// ticker goroutine still running after teardown fails the test with
// every goroutine's stack. fleet's tests never run in parallel, so the
// count at the start is this test's own baseline.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("%d goroutines after teardown, %d at the start:\n%s", runtime.NumGoroutine(), base, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// handshake performs the client side of the Hello exchange.
func handshake(t *testing.T, client net.Conn, p *FrameParser, every uint16, intervalMS uint32) {
	t.Helper()
	if _, err := client.Write(AppendHello(nil, 0, every, 0, intervalMS)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for {
		if typ, _, ok := p.Next(); ok {
			if typ != FrameHello {
				t.Fatalf("handshake reply type %#x", typ)
			}
			return
		}
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("handshake read: %v", err)
		}
		p.Feed(buf[:n])
	}
}

// TestBinaryBatchCap checks the per-batch scenario bound: a peer that
// streams past MaxBatch has its session torn down instead of growing
// the pooled batch (and the server's memory) without limit.
func TestBinaryBatchCap(t *testing.T) {
	checkGoroutines(t)
	s := NewServerConfig(ServerConfig{Workers: 1, Depth: 64, MaxBatch: 4})
	defer s.Close()
	client, wait := pipeSession(s)
	defer client.Close()

	var p FrameParser
	handshake(t, client, &p, 0, 0)

	// MaxBatch+1 scenarios in one write: the frame past the cap must
	// kill the session before any BatchEnd is even sent.
	var req []byte
	for i := 0; i < 5; i++ {
		req = AppendScenario(req, ScenarioSpec{Kind: KindStatic, Seed: int64(i), Dur: 1, NoCalibrate: true})
	}
	if _, err := client.Write(req); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 256)
	if n, err := client.Read(buf); err == nil {
		t.Fatalf("read %d bytes after cap violation, want closed session", n)
	}
	wait()
	// Nothing beyond the cap was admitted.
	if st := s.Stats(); st.Admitted != 0 {
		t.Errorf("cap-violating session admitted %d scenarios", st.Admitted)
	}
}

// TestBinaryIdleTimeout checks the idle deadline: a session that goes
// silent is torn down, releasing its goroutine, read buffer and pooled
// batch, instead of being held open forever.
func TestBinaryIdleTimeout(t *testing.T) {
	checkGoroutines(t)
	s := NewServerConfig(ServerConfig{Workers: 1, Depth: 64, IdleTimeout: 50 * time.Millisecond})
	defer s.Close()
	client, wait := pipeSession(s)
	defer client.Close()

	var p FrameParser
	handshake(t, client, &p, 0, 0)

	// Go silent. The server must close the connection on its own.
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 256)
		_, err := client.Read(buf)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("read returned data from an idle session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle session was not torn down")
	}
	wait()
}

// TestBinaryLiveTelemetry pins the mid-run telemetry stream: while a
// batch is held up (worker gated), Telemetry frames must keep arriving
// on the wall-clock interval — no blackout until the first result. The
// gate is only opened after the client has seen live frames, so the
// test is deterministic, not a race against the scheduler.
func TestBinaryLiveTelemetry(t *testing.T) {
	checkGoroutines(t)
	gate := make(chan struct{})
	s := &Server{
		cfg:     ServerConfig{TelemetryInterval: 20 * time.Millisecond}.withDefaults(),
		tenants: make(map[uint32]*tenantCounters),
	}
	s.jobPool.New = func() any { return new(job) }
	s.batchPool.New = func() any { return new(Batch) }
	s.runners = []*system.Runner{system.NewRunner()}
	s.pool = parallel.NewFairPool(1, 64, s.cfg.Quantum, 0, func(worker int, j *job) {
		<-gate
		s.serve(worker, j)
	})
	defer s.Close()

	client, wait := pipeSession(s)
	defer client.Close()
	var p FrameParser
	handshake(t, client, &p, 0, 0) // intervalMS 0: server default (20ms)

	const n = 3
	var req []byte
	for i := 0; i < n; i++ {
		req = AppendScenario(req, ScenarioSpec{Kind: KindStatic, Seed: int64(i), Dur: 1, NoCalibrate: true})
	}
	req = AppendBatchEnd(req, 0, 0)
	go client.Write(req) // net.Pipe is unbuffered

	buf := make([]byte, 4096)
	readFrame := func() (byte, []byte) {
		t.Helper()
		for {
			if typ, payload, ok := p.Next(); ok {
				return typ, payload
			}
			n, err := client.Read(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			p.Feed(buf[:n])
		}
	}

	liveFrames, results := 0, 0
	var opened sync.Once
	for {
		typ, payload := readFrame()
		switch typ {
		case FrameTelemetry:
			tel, err := DecodeTelemetry(payload)
			if err != nil {
				t.Fatal(err)
			}
			if results == 0 {
				liveFrames++
				// Mid-run snapshot: nothing has completed yet (the worker
				// is gated) — exactly the window that used to be dark. A
				// tick may race the submit loop, so Admitted is only
				// bounded, not pinned.
				if tel.Completed != 0 || tel.Admitted > n {
					t.Fatalf("live telemetry %+v, want completed=0 admitted<=%d", tel, n)
				}
				if liveFrames >= 2 {
					opened.Do(func() { close(gate) })
				}
			}
		case FrameResult:
			results++
		case FrameBatchEnd:
			if liveFrames < 2 {
				t.Fatalf("only %d live telemetry frames before the first result", liveFrames)
			}
			if results != n {
				t.Fatalf("%d results, want %d", results, n)
			}
			client.Close()
			wait()
			return
		default:
			t.Fatalf("unexpected frame %#x", typ)
		}
	}
}

// TestShedErrorsWrapSentinel pins the error taxonomy satellite: the
// concrete admission errors wrap ErrShed (so errors.Is classifies
// them), further wrapping still classifies, and Batch.Status maps
// wrapped shed errors to StatusShed, not StatusError.
func TestShedErrorsWrapSentinel(t *testing.T) {
	for _, err := range []error{ErrQueueFull, ErrTenantCap} {
		if !errors.Is(err, ErrShed) {
			t.Errorf("%v does not wrap ErrShed", err)
		}
		if err == ErrShed {
			t.Errorf("%v compares == to ErrShed; it must be a distinct wrapped error", err)
		}
	}
	b := &Batch{errs: []error{
		nil,
		fmt.Errorf("submit context: %w", ErrQueueFull),
		ErrTenantCap,
		errors.New("runner exploded"),
	}}
	want := []byte{StatusOK, StatusShed, StatusShed, StatusError}
	for i, w := range want {
		if got := b.Status(i); got != w {
			t.Errorf("errs[%d]=%v: status %d, want %d", i, b.errs[i], got, w)
		}
	}
}
