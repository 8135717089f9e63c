package fleet

import "testing"

// BenchmarkFleetThroughput measures the steady-state serving path —
// binary request decode, sharded run, binary result encode — over
// pooled batches, and guards the tentpole allocation contract: the
// whole cycle is 0 allocs/op. The scenarios/sec metric is the fleet
// capacity number DESIGN.md §11's cost model predicts.
func BenchmarkFleetThroughput(b *testing.B) {
	const batchSize = 256
	s := NewServer(0, batchSize*2)
	defer s.Close()

	// The request stream a client would send, encoded once up front —
	// the serving loop decodes it afresh every iteration.
	var req []byte
	for i := 0; i < batchSize; i++ {
		req = AppendScenario(req, ScenarioSpec{
			Kind: KindStatic, Tenant: uint32(i % 8), Seed: int64(i),
			Dur: 0.5, MisDeg: [3]float64{2, -3, 1}, NoCalibrate: true,
		})
	}
	var parser FrameParser
	out := make([]byte, 0, batchSize*(resultLen+5)+64)
	batch := s.NewBatch()
	defer batch.Release()

	serveBatch := func() {
		parser.Reset()
		parser.Feed(req)
		for {
			typ, payload, ok := parser.Next()
			if !ok {
				break
			}
			if typ != FrameScenario {
				b.Fatalf("unexpected frame %#x", typ)
			}
			sp, err := DecodeScenario(payload)
			if err != nil {
				b.Fatal(err)
			}
			batch.Add(sp)
		}
		if batch.Len() != batchSize {
			b.Fatalf("decoded %d scenarios", batch.Len())
		}
		batch.Submit(true)
		batch.Wait()
		out = out[:0]
		for i := range batch.Results() {
			if err := batch.Err(i); err != nil {
				b.Fatal(err)
			}
			out = AppendResult(out, uint32(i), batch.Status(i), batch.Results()[i])
		}
		// Truncate in place (as the binary session does between
		// batches) so the pooled storage is reused.
		batch.specs = batch.specs[:0]
		batch.results = batch.results[:0]
		batch.errs = batch.errs[:0]
	}

	serveBatch() // warm-up: pools, profile cache, runner filter layouts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBatch()
	}
	b.StopTimer()
	b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/sec")
}

// BenchmarkFleetDecodeEncode isolates the wire codec from the runs:
// parse a scenario frame and encode a result frame, allocation-free.
func BenchmarkFleetDecodeEncode(b *testing.B) {
	req := AppendScenario(nil, ScenarioSpec{
		Kind: KindStatic, Tenant: 3, Seed: 7, Dur: 5, MisDeg: [3]float64{2, -3, 1},
	})
	var parser FrameParser
	out := make([]byte, 0, 256)
	s := NewServer(1, 4)
	defer s.Close()
	batch := s.NewBatch()
	batch.Add(ScenarioSpec{Kind: KindStatic, Seed: 1, Dur: 1, NoCalibrate: true})
	batch.Submit(true)
	batch.Wait()
	if batch.Err(0) != nil {
		b.Fatal(batch.Err(0))
	}
	res := batch.Results()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parser.Reset()
		parser.Feed(req)
		typ, payload, ok := parser.Next()
		if !ok || typ != FrameScenario {
			b.Fatal("parse failed")
		}
		if _, err := DecodeScenario(payload); err != nil {
			b.Fatal(err)
		}
		out = AppendResult(out[:0], 0, StatusOK, res)
	}
	b.StopTimer()
	batch.Release()
}

// BenchmarkParseBatch parses one 500-scenario chunk the way a session
// reads a batch that arrives in one read: one Feed, then Next and
// DecodeScenario per frame. It holds the parser to the serving path's
// allocation contract, 0 allocs/op, and its ns/op is the cost of
// framing a fleet-tiny batch.
func BenchmarkParseBatch(b *testing.B) {
	const batchSize = 500
	var chunk []byte
	for i := 0; i < batchSize; i++ {
		chunk = AppendScenario(chunk, ScenarioSpec{
			Kind: KindStatic, Tenant: uint32(i % 64), Seed: int64(i),
			Dur: 0.05, NoCalibrate: true,
		})
	}
	var parser FrameParser
	parse := func() {
		parser.Feed(chunk)
		n := 0
		for {
			typ, payload, ok := parser.Next()
			if !ok {
				break
			}
			if typ != FrameScenario {
				b.Fatalf("unexpected frame %#x", typ)
			}
			sp, err := DecodeScenario(payload)
			if err != nil || sp.Seed != int64(n) {
				b.Fatalf("frame %d: %+v %v", n, sp, err)
			}
			n++
		}
		if n != batchSize {
			b.Fatalf("parsed %d scenarios, want %d", n, batchSize)
		}
	}

	parse() // warm-up: grows the parser's buffer to its stable size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parse()
	}
}
