package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"boresight/internal/parallel"
	"boresight/internal/system"
)

// TestGoldenHTTP pins the JSON wire schema — request field names,
// response field names, and the exact bytes of a deterministic batch
// reply. A failure here is a wire-format change: clients depend on
// this shape, so update the golden deliberately, not incidentally.
func TestGoldenHTTP(t *testing.T) {
	s := NewServer(1, 16)
	defer s.Close()
	h := s.HTTPHandler()

	req := `{"scenarios":[` +
		`{"kind":"static","tenant":7,"seed":42,"dur":5,"mis_deg":[2,-3,1],"no_calibrate":true},` +
		`{"kind":"bogus","seed":1,"dur":5,"mis_deg":[0,0,0]}]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(req)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad kind accepted: %d %s", rec.Code, rec.Body.String())
	}

	req = `{"scenarios":[` +
		`{"kind":"static","tenant":7,"seed":42,"dur":5,"mis_deg":[2,-3,1],"no_calibrate":true},` +
		`{"kind":"static","seed":1,"dur":-5,"mis_deg":[0,0,0]}]}`
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(req)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch failed: %d %s", rec.Code, rec.Body.String())
	}
	golden := `{"results":[{"status":"ok","error_deg":[0.14032128189906548,0.26960349172304354,0.008641635675355584],"three_sigma_deg":[0.30780907116362427,0.3371409578281094,0.05260244904427784],"within_confidence":true,"steps":500,"final_meas_noise":0.01,"mean_nis":1.5154856511872288,"exceedance_rate":0},{"status":"error","error":"fleet: duration -5 outside (0, 600] s","error_deg":[0,0,0],"three_sigma_deg":[0,0,0],"within_confidence":false,"steps":0,"final_meas_noise":0,"mean_nis":0,"exceedance_rate":0}],"admitted":2,"shed":0}` + "\n"
	if rec.Body.String() != golden {
		t.Errorf("JSON schema or result bytes changed:\n got %swant %s", rec.Body.String(), golden)
	}

	// Stats endpoint shape.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st StatsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Admitted != 2 || st.Completed != 2 || st.Failed != 1 || st.Workers != 1 || st.Depth != 16 {
		t.Errorf("stats counters %+v", st)
	}
	if st.Quantum != 32 || st.TenantCap != 0 {
		t.Errorf("fairness config in stats: quantum=%d tenant_cap=%d", st.Quantum, st.TenantCap)
	}
	// The batch above used tenants 0 and 7; per-tenant rows are sorted.
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != 0 || st.Tenants[1].Tenant != 7 {
		t.Fatalf("per-tenant rows %+v", st.Tenants)
	}
	if r := st.Tenants[0]; r.Admitted != 1 || r.Failed != 1 || r.Inflight != 0 {
		t.Errorf("tenant 0 row %+v", r)
	}
	if r := st.Tenants[1]; r.Admitted != 1 || r.Completed != 1 || r.Failed != 0 {
		t.Errorf("tenant 7 row %+v", r)
	}

	// Liveness.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestHTTPMethodFiltering checks every endpoint rejects the wrong verb
// with 405 instead of handling it (or panicking on a nil body).
func TestHTTPMethodFiltering(t *testing.T) {
	s := NewServer(1, 16)
	defer s.Close()
	h := s.HTTPHandler()
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/batch"},
		{http.MethodDelete, "/v1/batch"},
		{http.MethodPost, "/v1/stats"},
		{http.MethodDelete, "/v1/stats"},
		{http.MethodPost, "/healthz"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: got %d, want 405", tc.method, tc.path, rec.Code)
		}
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPBodyBound checks the /v1/batch body bound. A batch of
// maxHTTPBatch scenarios, each the longest compact SpecJSON, fits
// under maxHTTPBody, and a body one byte over the bound is refused
// with 413 instead of being buffered whole. That body is an empty
// scenario array padded with whitespace, so the decoder reads up to
// the bound before it could finish.
func TestHTTPBodyBound(t *testing.T) {
	x := math.Nextafter(-1e-6, -1) // a float64 with the longest JSON encoding
	longest, err := json.Marshal(SpecJSON{
		Kind: "dynamic", Tenant: math.MaxUint32, Seed: math.MinInt64,
		Dur: x, SampleRate: x, MisDeg: [3]float64{x, x, x},
		EstimateStride: math.MaxUint16, NoCalibrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := `{"scenarios":[`, `]}`
	if n := len(head) + maxHTTPBatch*(len(longest)+1) - 1 + len(tail); n > maxHTTPBody {
		t.Errorf("%d scenarios of %d bytes take %d bytes, over the %d-byte bound",
			maxHTTPBatch, len(longest), n, maxHTTPBody)
	}

	s := NewServer(1, 16)
	defer s.Close()
	pad := int64(maxHTTPBody + 1 - len(head) - len(tail))
	body := io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, pad), strings.NewReader(tail))
	rec := httptest.NewRecorder()
	s.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: %d %q, want 413", maxHTTPBody+1, rec.Code, rec.Body.String())
	}
}

// FuzzHTTPBatch posts arbitrary bytes to /v1/batch through HTTPHandler,
// as an HTTP client sends them. Every reply is 200, 400 or 413, and a
// 200 reply decodes to one result per scenario, each ok, shed or
// error, with Admitted + Shed equal to the scenario count. An input
// whose scenarios charge more than fuzzEpochCap epochs in all, counted
// as FuzzScenarioSpec counts them, returns early.
func FuzzHTTPBatch(f *testing.F) {
	for _, body := range []string{
		`{"scenarios":[{"kind":"static","tenant":7,"seed":42,"dur":5,"mis_deg":[2,-3,1],"no_calibrate":true}]}`,
		`{"scenarios":[{"kind":"dynamic","seed":1,"dur":2,"sample_rate":50,"mis_deg":[1,0,0]},` +
			`{"kind":"static","seed":1,"dur":-5,"mis_deg":[0,0,0]}],"block":true}`,
		`{"scenarios":[` + strings.Repeat(`{"kind":"static","dur":1,"sample_rate":20,"mis_deg":[0,0,0],"no_calibrate":true},`, 7) +
			`{"kind":"static","dur":1,"mis_deg":[0,0,0]}]}`,
		`{"scenarios":[{"kind":"bogus","dur":5,"mis_deg":[0,0,0]}]}`,
		`{"scenarios":[]}`,
		`{"scenarios":`,
		``,
	} {
		f.Add([]byte(body))
	}
	// A shallow queue, so a batch longer than it sheds.
	s := NewServer(1, 4)
	f.Cleanup(s.Close)
	h := s.HTTPHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req BatchRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			var work float64
			for _, sj := range req.Scenarios {
				sp, err := sj.Spec()
				if err != nil {
					continue
				}
				cfg, err := sp.Config()
				if err != nil {
					continue
				}
				epochs, _, rate := sp.charge()
				work += epochs
				if cfg.Calibrate {
					work += cfg.CalibrationTime * rate
				}
			}
			if work > fuzzEpochCap {
				return
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("%q: status %d %q", body, rec.Code, rec.Body.String())
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%q: 200 reply does not decode: %v (%q)", body, err, rec.Body.String())
		}
		n := len(req.Scenarios)
		if len(resp.Results) != n || resp.Admitted+resp.Shed != n {
			t.Fatalf("%q: %d results, %d admitted, %d shed for %d scenarios",
				body, len(resp.Results), resp.Admitted, resp.Shed, n)
		}
		for i, r := range resp.Results {
			switch r.Status {
			case "ok", "shed", "error":
			default:
				t.Fatalf("%q: scenario %d status %q", body, i, r.Status)
			}
		}
	})
}

// TestHTTPShedClassification drives real queue-full shedding through
// the JSON path and checks the handler classifies the wrapped ErrShed
// (ErrQueueFull wraps it — a == test would misreport shed as error).
// The worker is gated, so admission outcomes are deterministic: one
// scenario held by the worker, depth queued, the rest shed.
func TestHTTPShedClassification(t *testing.T) {
	const depth = 2
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s := &Server{
		cfg:     ServerConfig{}.withDefaults(),
		tenants: make(map[uint32]*tenantCounters),
	}
	s.jobPool.New = func() any { return new(job) }
	s.batchPool.New = func() any { return new(Batch) }
	s.runners = []*system.Runner{system.NewRunner()}
	s.pool = parallel.NewFairPool(1, depth, 32, 0, func(worker int, j *job) {
		once.Do(func() { close(started) })
		<-gate
		s.serve(worker, j)
	})
	defer s.Close()

	// Park the worker on a stall scenario so the queue state is fixed.
	stall := s.NewBatch()
	stall.Add(ScenarioSpec{Kind: KindStatic, Seed: 1, Dur: 1, NoCalibrate: true})
	stall.Submit(false)
	<-started

	const n = depth + 4
	var sb strings.Builder
	sb.WriteString(`{"scenarios":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"kind":"static","seed":%d,"dur":1,"mis_deg":[0,0,0],"no_calibrate":true}`, i)
	}
	sb.WriteString(`]}`)
	body := sb.String()

	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
		respCh <- rec
	}()
	// All n submissions have resolved once the shed counter lands;
	// only then may the gate open (otherwise drain races admission).
	for s.shed.Load() != n-depth {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	rec := <-respCh
	stall.Wait()
	stall.Release()

	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v (%s)", err, rec.Body.String())
	}
	if resp.Admitted != depth || resp.Shed != n-depth {
		t.Fatalf("admitted=%d shed=%d, want %d/%d", resp.Admitted, resp.Shed, depth, n-depth)
	}
	for i, r := range resp.Results {
		want := "ok"
		if i >= depth {
			want = "shed"
		}
		if r.Status != want {
			t.Errorf("scenario %d: status %q (err %q), want %q", i, r.Status, r.Error, want)
		}
		if i >= depth && !strings.Contains(r.Error, "queue full") {
			t.Errorf("scenario %d: shed error %q does not name the bound", i, r.Error)
		}
	}
}

// TestHTTPReplayMatchesBinary runs the same spec through the JSON path
// and the binary encoding and checks the numbers agree exactly — the
// two protocol faces serve one engine.
func TestHTTPReplayMatchesBinary(t *testing.T) {
	s := NewServer(2, 16)
	defer s.Close()

	sp := ScenarioSpec{Kind: KindDynamic, Tenant: 3, Seed: 9, Dur: 3, MisDeg: [3]float64{1, 2, -1}}
	b := s.NewBatch()
	b.Add(sp)
	b.Submit(false)
	b.Wait()
	if b.Err(0) != nil {
		t.Fatal(b.Err(0))
	}
	wire, err := DecodeResult(AppendResult(nil, 0, StatusOK, b.Results()[0])[4 : 4+resultLen])
	if err != nil {
		t.Fatal(err)
	}
	b.Release()

	body := `{"scenarios":[{"kind":"dynamic","tenant":3,"seed":9,"dur":3,"mis_deg":[1,2,-1]}]}`
	rec := httptest.NewRecorder()
	s.HTTPHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Status != "ok" {
		t.Fatalf("http reply: %+v", resp)
	}
	rj := resp.Results[0]
	if rj.ErrorDeg != wire.ErrorDeg || rj.ThreeSigmaDeg != wire.ThreeSigmaDeg ||
		rj.Steps != int(wire.Steps) || rj.MeanNIS != wire.MeanNIS ||
		rj.FinalMeasNoise != wire.FinalMeasNoise || rj.ExceedanceRate != wire.ExceedanceRate {
		t.Errorf("JSON and binary results disagree:\n json %+v\n wire %+v", rj, wire)
	}
}
