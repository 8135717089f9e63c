package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The HTTP/JSON face of the server: the operability path. It shares
// admission, sharding and pooling with the binary protocol — only the
// codec differs (and the JSON codec allocates; the zero-alloc contract
// belongs to the binary path). The schemas below are pinned by golden
// tests: changing a field name or adding a field is a wire-format
// change and must update TestGoldenHTTP.

// SpecJSON is the JSON form of ScenarioSpec.
type SpecJSON struct {
	Kind           string     `json:"kind"`
	Tenant         uint32     `json:"tenant,omitempty"`
	Seed           int64      `json:"seed"`
	Dur            float64    `json:"dur"`
	SampleRate     float64    `json:"sample_rate,omitempty"`
	MisDeg         [3]float64 `json:"mis_deg"`
	EstimateStride uint16     `json:"estimate_stride,omitempty"`
	NoCalibrate    bool       `json:"no_calibrate,omitempty"`
}

// Spec converts the JSON form to the internal spec.
func (j SpecJSON) Spec() (ScenarioSpec, error) {
	kind, err := ParseKind(j.Kind)
	if err != nil {
		return ScenarioSpec{}, err
	}
	return ScenarioSpec{
		Kind: kind, Tenant: j.Tenant, Seed: j.Seed,
		Dur: j.Dur, SampleRate: j.SampleRate, MisDeg: j.MisDeg,
		EstimateStride: j.EstimateStride, NoCalibrate: j.NoCalibrate,
	}, nil
}

// ResultJSON is the JSON form of one scenario outcome.
type ResultJSON struct {
	Status           string     `json:"status"` // "ok" | "shed" | "error"
	Error            string     `json:"error,omitempty"`
	ErrorDeg         [3]float64 `json:"error_deg"`
	ThreeSigmaDeg    [3]float64 `json:"three_sigma_deg"`
	WithinConfidence bool       `json:"within_confidence"`
	Steps            int        `json:"steps"`
	FinalMeasNoise   float64    `json:"final_meas_noise"`
	MeanNIS          float64    `json:"mean_nis"`
	ExceedanceRate   float64    `json:"exceedance_rate"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Scenarios []SpecJSON `json:"scenarios"`
	// Block selects backpressure over shedding: the request waits for
	// queue space instead of shedding overflow scenarios.
	Block bool `json:"block,omitempty"`
}

// BatchResponse is the POST /v1/batch reply.
type BatchResponse struct {
	Results  []ResultJSON `json:"results"`
	Admitted int          `json:"admitted"`
	Shed     int          `json:"shed"`
}

// StatsJSON is the GET /v1/stats reply.
type StatsJSON struct {
	Admitted     int64 `json:"admitted"`
	Completed    int64 `json:"completed"`
	Shed         int64 `json:"shed"`
	Failed       int64 `json:"failed"`
	Inflight     int64 `json:"inflight"`
	PeakInflight int64 `json:"peak_inflight"`
	Queued       int   `json:"queued"`
	Workers      int   `json:"workers"`
	Depth        int   `json:"depth"`
	Quantum      int   `json:"quantum"`
	TenantCap    int   `json:"tenant_cap"`
	// Tenants is the per-tenant accounting, sorted by tenant ID — the
	// fairness observability surface: who is admitted, who is being
	// shed, and whose inflight share is at the cap.
	Tenants []TenantStatsJSON `json:"tenants,omitempty"`
}

// TenantStatsJSON is one tenant's row in the /v1/stats reply.
type TenantStatsJSON struct {
	Tenant       uint32 `json:"tenant"`
	Admitted     int64  `json:"admitted"`
	Completed    int64  `json:"completed"`
	Shed         int64  `json:"shed"`
	Failed       int64  `json:"failed"`
	Inflight     int64  `json:"inflight"`
	PeakInflight int64  `json:"peak_inflight"`
}

// maxHTTPBatch bounds one JSON request's scenario count; the binary
// protocol is the path for bigger batches.
const maxHTTPBatch = 100_000

// maxHTTPBody bounds one POST /v1/batch body, so the handler never
// buffers more than this before it can count the scenarios: 512 bytes
// for each of maxHTTPBatch scenarios, room for the longest compact
// SpecJSON (272 bytes, TestHTTPBodyBound) and some whitespace.
const maxHTTPBody = maxHTTPBatch * 512

// HTTPHandler returns the server's HTTP face:
//
//	POST /v1/batch  — run a batch of scenarios
//	GET  /v1/stats  — admission counters
//	GET  /healthz   — liveness
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", handleHealthz)
	return mux
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHTTPBody)).Decode(&req); err != nil {
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			http.Error(w, fmt.Sprintf("body exceeds the %d-byte HTTP limit", maxHTTPBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Scenarios) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(req.Scenarios) > maxHTTPBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds the %d-scenario HTTP limit",
			len(req.Scenarios), maxHTTPBatch), http.StatusRequestEntityTooLarge)
		return
	}
	b := s.NewBatch()
	defer b.Release()
	for i, sj := range req.Scenarios {
		sp, err := sj.Spec()
		if err != nil {
			http.Error(w, fmt.Sprintf("scenario %d: %v", i, err), http.StatusBadRequest)
			return
		}
		b.Add(sp)
	}
	b.Submit(req.Block)
	b.Wait()

	resp := BatchResponse{Results: make([]ResultJSON, b.Len())}
	for i := range resp.Results {
		rj := &resp.Results[i]
		switch err := b.Err(i); {
		case err == nil:
			res := b.Results()[i]
			rj.Status = "ok"
			rj.ErrorDeg = res.ErrorDeg
			rj.ThreeSigmaDeg = res.ThreeSigmaDeg
			rj.WithinConfidence = res.WithinConfidence
			rj.Steps = res.Steps
			rj.FinalMeasNoise = res.FinalMeasNoise
			rj.MeanNIS = res.MeanNIS
			rj.ExceedanceRate = res.ExceedanceRate
			resp.Admitted++
		// Shed classification must be errors.Is, not ==: admission
		// errors wrap ErrShed (ErrQueueFull, ErrTenantCap).
		case errors.Is(err, ErrShed):
			rj.Status = "shed"
			rj.Error = err.Error()
			resp.Shed++
		default:
			rj.Status = "error"
			rj.Error = err.Error()
			resp.Admitted++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(resp); err != nil {
		// Reply already partially written; nothing recoverable.
		return
	}
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := s.Stats()
	rows := s.PerTenant()
	tj := make([]TenantStatsJSON, len(rows))
	for i, row := range rows {
		tj[i] = TenantStatsJSON{
			Tenant: row.Tenant, Admitted: row.Admitted, Completed: row.Completed,
			Shed: row.Shed, Failed: row.Failed,
			Inflight: row.Inflight, PeakInflight: row.PeakInflight,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(StatsJSON{
		Admitted: st.Admitted, Completed: st.Completed, Shed: st.Shed,
		Failed: st.Failed, Inflight: st.Inflight, PeakInflight: st.PeakInflight,
		Queued: st.Queued, Workers: st.Workers, Depth: st.Depth,
		Quantum: st.Quantum, TenantCap: st.TenantCap, Tenants: tj,
	})
}
