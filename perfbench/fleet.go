package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"boresight/internal/fleet"
	"boresight/internal/system"
)

// rig is one in-process fleetd: the server with its binary and HTTP
// listeners, plus the benchmark's two client connections — one binary
// bulk connection and one HTTP keep-alive interactive connection.
type rig struct {
	srv     *fleet.Server
	binLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server
	serving sync.WaitGroup

	bulk *binClient
	web  *http.Client
	url  string
}

// startRig brings the server and both client connections up and serves
// the warm-up batches: one bulk batch covering every profile-cache key
// and kind of the mix, and one interactive request.
func startRig(tr traffic, workers int) (*rig, error) {
	r := &rig{srv: fleet.NewServerConfig(fleet.ServerConfig{Workers: workers})}
	var err error
	if r.binLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		r.srv.Close()
		return nil, err
	}
	if r.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		r.binLn.Close()
		r.srv.Close()
		return nil, err
	}
	r.httpSrv = &http.Server{Handler: r.srv.HTTPHandler()}
	// Both serve loops return when close shuts their listener; an
	// earlier failure shows as failed client requests.
	r.serving.Add(2)
	go func() {
		defer r.serving.Done()
		_ = r.srv.ServeBinary(r.binLn)
	}()
	go func() {
		defer r.serving.Done()
		_ = r.httpSrv.Serve(r.httpLn)
	}()
	r.url = "http://" + r.httpLn.Addr().String() + "/v1/batch"
	r.web = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	if r.bulk, err = dialBin(r.binLn.Addr().String()); err != nil {
		r.close()
		return nil, err
	}
	warm := warmupSpecs(tr)
	st, err := r.bulk.runBatch(warm)
	if err == nil && st.ok != len(warm) {
		err = fmt.Errorf("warm-up batch: %d of %d scenarios ok", st.ok, len(warm))
	}
	if err == nil {
		_, err = r.interactive(encodeRequest(warm[:1]))
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return r, nil
}

// close stops the clients, the listeners and the server, and waits for
// every serving goroutine to end.
func (r *rig) close() {
	if r.bulk != nil {
		r.bulk.conn.Close()
	}
	r.web.CloseIdleConnections()
	r.httpSrv.Close()
	r.binLn.Close()
	r.serving.Wait()
	r.srv.Close()
}

// binClient drives the binary protocol on one connection.
type binClient struct {
	conn     net.Conn
	parser   fleet.FrameParser
	rbuf     []byte
	req      []byte
	payloads [][]byte // result payloads of the last batch, by index
	status   []byte
}

// dialBin connects and handshakes: no result-interval telemetry and the
// server's default mid-run telemetry cadence.
func dialBin(addr string) (*binClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &binClient{conn: conn, rbuf: make([]byte, 64<<10)}
	if err := c.hello(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *binClient) hello() error {
	if _, err := c.conn.Write(fleet.AppendHello(nil, 0, 65535, 0, 0)); err != nil {
		return err
	}
	typ, payload, err := c.readFrame()
	if err != nil || typ != fleet.FrameHello {
		return fmt.Errorf("handshake: frame %#x: %v", typ, err)
	}
	if v, _, _, _, _, err := fleet.DecodeHello(payload); err != nil || v != fleet.WireVersion {
		return fmt.Errorf("handshake version %d: %v", v, err)
	}
	return nil
}

func (c *binClient) readFrame() (byte, []byte, error) {
	for {
		if typ, payload, ok := c.parser.Next(); ok {
			return typ, payload, nil
		}
		n, err := c.conn.Read(c.rbuf)
		if n > 0 {
			c.parser.Feed(c.rbuf[:n])
			continue
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// batchStatus counts one batch's outcomes.
type batchStatus struct{ ok, shed, errored int }

// runBatch sends one batch and reads its reply, keeping a copy of every
// result payload in c.payloads.
func (c *binClient) runBatch(specs []fleet.ScenarioSpec) (batchStatus, error) {
	var st batchStatus
	c.req = c.req[:0]
	for _, sp := range specs {
		c.req = fleet.AppendScenario(c.req, sp)
	}
	c.req = fleet.AppendBatchEnd(c.req, 0, 0)
	if _, err := c.conn.Write(c.req); err != nil {
		return st, err
	}
	for len(c.payloads) < len(specs) {
		c.payloads = append(c.payloads, nil)
	}
	c.status = c.status[:0]
	for range specs {
		c.status = append(c.status, 0)
	}
	got := 0
	for {
		typ, payload, err := c.readFrame()
		if err != nil {
			return st, err
		}
		switch typ {
		case fleet.FrameResult:
			w, err := fleet.DecodeResult(payload)
			if err != nil {
				return st, err
			}
			if int(w.Index) >= len(specs) {
				return st, fmt.Errorf("result index %d outside batch of %d", w.Index, len(specs))
			}
			c.payloads[w.Index] = append(c.payloads[w.Index][:0], payload...)
			c.status[w.Index] = w.Status
			got++
			switch w.Status {
			case fleet.StatusOK:
				st.ok++
			case fleet.StatusShed:
				st.shed++
			default:
				st.errored++
			}
		case fleet.FrameBatchEnd:
			if got != len(specs) {
				return st, fmt.Errorf("batch end after %d of %d results", got, len(specs))
			}
			return st, nil
		}
	}
}

// encodeRequest renders specs as a POST /v1/batch body.
func encodeRequest(specs []fleet.ScenarioSpec) []byte {
	req := fleet.BatchRequest{Scenarios: make([]fleet.SpecJSON, len(specs))}
	for i, sp := range specs {
		req.Scenarios[i] = fleet.SpecJSON{
			Kind: sp.Kind.String(), Tenant: sp.Tenant, Seed: sp.Seed, Dur: sp.Dur,
			SampleRate: sp.SampleRate, MisDeg: sp.MisDeg,
			EstimateStride: sp.EstimateStride, NoCalibrate: sp.NoCalibrate,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return body
}

// interactive posts one JSON batch on the keep-alive connection.
func (r *rig) interactive(body []byte) (fleet.BatchResponse, error) {
	var resp fleet.BatchResponse
	hr, err := r.web.Post(r.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(hr.Body)
		return resp, fmt.Errorf("HTTP %d: %s", hr.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return resp, err
	}
	return resp, nil
}

// bulkSample is one served binary result kept for the output check.
type bulkSample struct {
	spec    fleet.ScenarioSpec
	index   uint32
	payload []byte
}

// interRequest is one interactive request of the timed phase.
type interRequest struct {
	specs   []fleet.ScenarioSpec
	results []fleet.ResultJSON
	latency float64 // ms from the scheduled send time to the full response
}

// fleetPhase is what one timed fleet phase measured.
type fleetPhase struct {
	elapsed                 float64   // s
	cpu                     float64   // s of process CPU time, every thread
	stolen                  []float64 // per slice: share of the VM's CPU time stolen
	bulkOK, interOK         int
	bulkSent, interSent     int // scenarios
	requests                int
	shed, errored, transErr int
	latencies               []float64 // ms
	unstolen                []float64 // ms, latencies without the stolen share
	late                    []float64 // ms
	bulkSamples             []bulkSample
	interSamples            []interRequest
	replay                  []fleet.ScenarioSpec // bulk specs the ladder replays
}

// runFleet drives both streams for d: the bulk stream closed loop (the
// next batch goes out when the previous reply is complete), the
// interactive stream open loop at tr.rate requests per second, each
// request timed from when it was due. The generators carry the spec
// streams across the slices of one run, and slice keeps trace request
// ids distinct. bulkPick and interPick choose, per stream, which served
// results the output check keeps.
func runFleet(r *rig, tr traffic, bulkGen, interGen *specGen, bulkPick, interPick *rand.Rand, slice int, d time.Duration, tc *tracer) *fleetPhase {
	ph := &fleetPhase{}
	caps := tr.caps
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards ph's shared counters
	wg.Add(2)
	go func() { // bulk: closed loop
		defer wg.Done()
		specs := make([]fleet.ScenarioSpec, tr.bulkBatch)
		for k := int64(0); time.Now().Before(deadline); k++ {
			for i := range specs {
				specs[i] = bulkGen.bulk()
			}
			t0 := time.Now()
			st, err := r.bulk.runBatch(specs)
			tc.add("client.bulk_batch", -1, reqBulk+int64(slice)<<24+k, t0, time.Now(), len(specs))
			mu.Lock()
			ph.bulkSent += len(specs)
			if err != nil {
				ph.transErr += len(specs) - st.ok - st.shed - st.errored
			}
			ph.bulkOK += st.ok
			ph.shed += st.shed
			ph.errored += st.errored
			if err == nil && len(ph.bulkSamples) < caps.bulk {
				i := bulkPick.Intn(len(specs))
				if r.bulk.status[i] == fleet.StatusOK {
					ph.bulkSamples = append(ph.bulkSamples, bulkSample{
						spec: specs[i], index: uint32(i),
						payload: append([]byte(nil), r.bulk.payloads[i]...),
					})
				}
			}
			for _, sp := range specs {
				if len(ph.replay) < caps.replay {
					ph.replay = append(ph.replay, sp)
				}
			}
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	go func() { // interactive: open loop at a fixed rate
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / tr.rate)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if !due.Before(deadline) {
				return
			}
			specs := interGen.request()
			body := encodeRequest(specs)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			sent := time.Now()
			resp, err := r.interactive(body)
			done := time.Now()
			tc.add("client.interactive", -1, reqInteractive+int64(slice)<<24+int64(k), due, done, len(specs))
			lat := float64(done.Sub(due)) / 1e6
			mu.Lock()
			ph.requests++
			ph.interSent += len(specs)
			ph.late = append(ph.late, float64(sent.Sub(due))/1e6)
			if err != nil || len(resp.Results) != len(specs) {
				ph.transErr += len(specs)
				mu.Unlock()
				continue
			}
			ph.latencies = append(ph.latencies, lat)
			for _, res := range resp.Results {
				switch res.Status {
				case "ok":
					ph.interOK++
				case "shed":
					ph.shed++
				default:
					ph.errored++
				}
			}
			if len(ph.interSamples) < caps.inter && interPick.Intn(4) == 0 {
				ph.interSamples = append(ph.interSamples, interRequest{specs: specs, results: resp.Results, latency: lat})
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	ph.elapsed = time.Since(start).Seconds()
	return ph
}

// discountSteal records the share of the VM's CPU time the hypervisor
// stole during a one-slice phase, and the phase's latencies without
// that share: each multiplied by 1 - share.
func (ph *fleetPhase) discountSteal(share float64) {
	ph.stolen = append(ph.stolen, share)
	for _, l := range ph.latencies {
		ph.unstolen = append(ph.unstolen, l*(1-share))
	}
}

// merged returns acc with o folded in; a nil acc starts empty, so the
// result never shares slice storage with o.
func merged(acc, o *fleetPhase) *fleetPhase {
	if acc == nil {
		acc = &fleetPhase{}
	}
	acc.merge(o)
	return acc
}

// merge folds a later phase of the same run into ph.
func (ph *fleetPhase) merge(o *fleetPhase) {
	ph.elapsed += o.elapsed
	ph.cpu += o.cpu
	ph.stolen = append(ph.stolen, o.stolen...)
	ph.bulkOK += o.bulkOK
	ph.interOK += o.interOK
	ph.bulkSent += o.bulkSent
	ph.interSent += o.interSent
	ph.requests += o.requests
	ph.shed += o.shed
	ph.errored += o.errored
	ph.transErr += o.transErr
	ph.latencies = append(ph.latencies, o.latencies...)
	ph.unstolen = append(ph.unstolen, o.unstolen...)
	ph.late = append(ph.late, o.late...)
	ph.bulkSamples = append(ph.bulkSamples, o.bulkSamples...)
	ph.interSamples = append(ph.interSamples, o.interSamples...)
	ph.replay = append(ph.replay, o.replay...)
}

// checkFleet re-runs every sampled scenario directly and compares: a
// binary result must be byte-equal to fleet.AppendResult of a direct
// system.Run(spec.Config()), and an interactive JSON result must equal
// the same direct run. It returns the number of mismatches.
func checkFleet(ph *fleetPhase) (checked, mismatched int, err error) {
	var specs []fleet.ScenarioSpec
	for _, s := range ph.bulkSamples {
		specs = append(specs, s.spec)
	}
	for _, q := range ph.interSamples {
		specs = append(specs, q.specs...)
	}
	cfgs := make([]system.Config, len(specs))
	for i, sp := range specs {
		if cfgs[i], err = sp.Config(); err != nil {
			return 0, 0, err
		}
	}
	results, err := system.RunMany(cfgs, runtime.NumCPU())
	if err != nil {
		return 0, 0, err
	}
	defer system.Recycle(results...)
	i := 0
	var frame []byte
	for _, s := range ph.bulkSamples {
		frame = fleet.AppendResult(frame[:0], s.index, fleet.StatusOK, results[i])
		if !bytes.Equal(frame[4:len(frame)-1], s.payload) {
			mismatched++
		}
		checked++
		i++
	}
	for _, q := range ph.interSamples {
		for j := range q.specs {
			if q.results[j] != wantJSON(results[i]) {
				mismatched++
			}
			checked++
			i++
		}
	}
	return checked, mismatched, nil
}

func wantJSON(res *system.Result) fleet.ResultJSON {
	return fleet.ResultJSON{
		Status: "ok", ErrorDeg: res.ErrorDeg, ThreeSigmaDeg: res.ThreeSigmaDeg,
		WithinConfidence: res.WithinConfidence, Steps: res.Steps,
		FinalMeasNoise: res.FinalMeasNoise, MeanNIS: res.MeanNIS,
		ExceedanceRate: res.ExceedanceRate,
	}
}
