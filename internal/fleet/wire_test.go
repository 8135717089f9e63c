package fleet

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"boresight/internal/system"
)

func TestWireRoundTrip(t *testing.T) {
	sp := ScenarioSpec{
		Kind: KindDynamic, Tenant: 0xDEADBEEF, Seed: -42,
		Dur: 12.5, SampleRate: 200,
		MisDeg:         [3]float64{2.25, -3.5, 0.125},
		EstimateStride: 7, NoCalibrate: true,
	}
	frame := AppendScenario(nil, sp)
	var p FrameParser
	p.Feed(frame)
	typ, payload, ok := p.Next()
	if !ok || typ != FrameScenario {
		t.Fatalf("parse: ok=%v typ=%#x", ok, typ)
	}
	got, err := DecodeScenario(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != sp {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, sp)
	}

	tel := Telemetry{Admitted: 1, Completed: 2, Shed: 3, Failed: 4, Inflight: 5, Queued: 6, PeakInflight: 7, Tenants: 8}
	p.Feed(AppendTelemetry(nil, tel))
	typ, payload, ok = p.Next()
	if !ok || typ != FrameTelemetry {
		t.Fatal("telemetry frame did not parse")
	}
	if got, err := DecodeTelemetry(payload); err != nil || got != tel {
		t.Fatalf("telemetry round trip: %+v %v", got, err)
	}

	p.Feed(AppendBatchEnd(nil, 9, 4))
	_, payload, ok = p.Next()
	if !ok {
		t.Fatal("batchend did not parse")
	}
	if a, sh, err := DecodeBatchEnd(payload); err != nil || a != 9 || sh != 4 {
		t.Fatalf("batchend round trip: %d %d %v", a, sh, err)
	}

	p.Feed(AppendHello(nil, 8, 512, 1024, 250))
	_, payload, ok = p.Next()
	if !ok {
		t.Fatal("hello did not parse")
	}
	v, w, every, depth, interval, err := DecodeHello(payload)
	if err != nil || v != WireVersion || w != 8 || every != 512 || depth != 1024 || interval != 250 {
		t.Fatalf("hello round trip: v=%d w=%d every=%d depth=%d interval=%d err=%v",
			v, w, every, depth, interval, err)
	}
}

// TestParserResync corrupts and fragments the stream and checks the
// parser recovers on the next frame boundary — the link-layer resync
// discipline.
func TestParserResync(t *testing.T) {
	sp := ScenarioSpec{Kind: KindStatic, Seed: 5, Dur: 1}
	good := AppendScenario(nil, sp)

	var p FrameParser
	// Garbage, a corrupted frame (payload bit flipped), then a good one.
	corrupt := append([]byte(nil), good...)
	corrupt[10] ^= 0x40
	stream := append([]byte{0x00, 0x17, FrameSync ^ 1}, corrupt...)
	stream = append(stream, good...)

	// Feed byte by byte: the parser must work at any fragmentation.
	var got []ScenarioSpec
	for _, b := range stream {
		p.Feed(stream[:0]) // exercise empty feeds too
		p.Feed([]byte{b})
		for {
			typ, payload, ok := p.Next()
			if !ok {
				break
			}
			if typ != FrameScenario {
				t.Fatalf("unexpected type %#x", typ)
			}
			s, err := DecodeScenario(payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, s)
		}
	}
	if len(got) != 1 || got[0] != sp {
		t.Fatalf("recovered %d frames (%v), want the one good frame", len(got), got)
	}
	if _, badSum, resyncs := p.Stats(); badSum == 0 || resyncs == 0 {
		t.Error("corruption left no trace in the parser counters")
	}
}

// TestParserBoundsHostileLength checks a frame header advertising an
// oversized length cannot make the parser buffer unboundedly.
func TestParserBoundsHostileLength(t *testing.T) {
	var p FrameParser
	p.Feed([]byte{FrameSync, FrameScenario, 0xFF, 0xFF}) // 65535-byte payload claim
	if _, _, ok := p.Next(); ok {
		t.Fatal("hostile length yielded a frame")
	}
	// The parser must have dropped the bogus header rather than
	// waiting for 65 KB that will never arrive.
	good := AppendScenario(nil, ScenarioSpec{Kind: KindStatic, Seed: 1, Dur: 1})
	p.Feed(good)
	if _, _, ok := p.Next(); !ok {
		t.Fatal("parser did not recover after hostile length")
	}
}

// TestGoldenBinary pins the binary wire schema byte for byte. If this
// test fails you have changed the wire format: bump WireVersion and
// update the goldens deliberately.
func TestGoldenBinary(t *testing.T) {
	sp := ScenarioSpec{
		Kind: KindStatic, Tenant: 7, Seed: 42, Dur: 5, SampleRate: 100,
		MisDeg: [3]float64{2, -3, 1}, EstimateStride: 0, NoCalibrate: true,
	}
	goldenScenario := "fb0200380101000000000007000000000000002a4014000000000000405900000000000040000" +
		"00000000000c0080000000000003ff00000000000006f"
	if got := hex.EncodeToString(AppendScenario(nil, sp)); got != goldenScenario {
		t.Errorf("scenario frame changed:\n got %s\nwant %s", got, goldenScenario)
	}

	// Wire v2 hello: version 2, the intervalMS field appended after
	// telemetryEvery.
	goldenHello := "fb01000d020008000004000002000000fae8"
	if got := hex.EncodeToString(AppendHello(nil, 8, 2, 1024, 250)); got != goldenHello {
		t.Errorf("hello frame changed:\n got %s\nwant %s", got, goldenHello)
	}

	// Wire v2 telemetry: eight big-endian uint64s, Tenants last.
	goldenTelemetry := "fb050040" +
		"0000000000000001" + "0000000000000002" + "0000000000000003" + "0000000000000004" +
		"0000000000000005" + "0000000000000006" + "0000000000000007" + "0000000000000008" +
		"97"
	tel := Telemetry{Admitted: 1, Completed: 2, Shed: 3, Failed: 4, Inflight: 5, Queued: 6, PeakInflight: 7, Tenants: 8}
	if got := hex.EncodeToString(AppendTelemetry(nil, tel)); got != goldenTelemetry {
		t.Errorf("telemetry frame changed:\n got %s\nwant %s", got, goldenTelemetry)
	}

	goldenBatchEnd := "fb0300080000000500000002ee"
	if got := hex.EncodeToString(AppendBatchEnd(nil, 5, 2)); got != goldenBatchEnd {
		t.Errorf("batchend frame changed:\n got %s\nwant %s", got, goldenBatchEnd)
	}
}

// TestResultZeroFillOnNonOK pins the cross-tenant hygiene property of
// the result codec: a non-OK slot's payload is all zeros past the
// header, even when the caller hands it a recycled *Result still
// holding another scenario's numbers. Pooled result storage makes this
// the line between "shed" and "leaked a stranger's metrics".
func TestResultZeroFillOnNonOK(t *testing.T) {
	stale := &system.Result{
		ErrorDeg:         [3]float64{1.5, -2.5, 3.5},
		ThreeSigmaDeg:    [3]float64{4.5, 5.5, 6.5},
		WithinConfidence: true, Steps: 999,
		FinalMeasNoise: 0.5, MeanNIS: 9.9, ExceedanceRate: 0.25,
	}
	for _, status := range []byte{StatusError, StatusShed} {
		frame := AppendResult(nil, 7, status, stale)
		var p FrameParser
		p.Feed(frame)
		typ, payload, ok := p.Next()
		if !ok || typ != FrameResult {
			t.Fatalf("status %d: frame did not parse", status)
		}
		if rd32(payload) != 7 || payload[4] != status {
			t.Fatalf("status %d: header %x", status, payload[:5])
		}
		for i, b := range payload[5:] {
			if b != 0 {
				t.Fatalf("status %d: recycled result leaked byte %#x at payload offset %d",
					status, b, i+5)
			}
		}
	}
}

// TestParserPayloadsLiveUntilFeed keeps every payload of one
// 500-frame chunk and checks them only after the last Next: parsing
// advances a read offset and moves no buffered byte before the next
// Feed, so each payload still holds the bytes it was encoded from.
func TestParserPayloadsLiveUntilFeed(t *testing.T) {
	const frames = 500
	var chunk []byte
	var marks []int
	for i := 0; i < frames; i++ {
		marks = append(marks, len(chunk))
		chunk = AppendScenario(chunk, ScenarioSpec{
			Kind: KindStatic, Tenant: uint32(i), Seed: int64(i) * 7919,
			Dur: float64(i%600 + 1), MisDeg: [3]float64{float64(i % 45), -3, 1},
		})
	}
	var p FrameParser
	p.Feed(chunk)
	var got [][]byte
	for {
		typ, payload, ok := p.Next()
		if !ok {
			break
		}
		if typ != FrameScenario {
			t.Fatalf("frame %d: type %#x", len(got), typ)
		}
		got = append(got, payload)
	}
	if len(got) != frames {
		t.Fatalf("parsed %d frames, want %d", len(got), frames)
	}
	for i, payload := range got {
		want := chunk[marks[i]+4 : marks[i]+4+scenarioLen]
		if !bytes.Equal(payload, want) {
			t.Fatalf("payload %d changed before the next Feed:\n got %x\nwant %x", i, payload, want)
		}
	}
}

// parsedFrame is one frame a parser returned, its payload copied out of
// the parser's buffer.
type parsedFrame struct {
	typ     byte
	payload string
}

// parseSplit feeds data to a fresh parser in pieces of at most piece
// bytes, draining Next after each Feed, and returns the parser and the
// frames it returned.
func parseSplit(t *testing.T, data []byte, piece int) (*FrameParser, []parsedFrame) {
	var p FrameParser
	var frames []parsedFrame
	for len(data) > 0 {
		n := min(piece, len(data))
		p.Feed(data[:n])
		data = data[n:]
		for {
			typ, payload, ok := p.Next()
			if !ok {
				break
			}
			if len(payload) > maxFrameLen {
				t.Fatalf("parser returned %d-byte payload beyond bound", len(payload))
			}
			frames = append(frames, parsedFrame{typ, string(payload)})
		}
	}
	return &p, frames
}

// FuzzFrameParser feeds arbitrary bytes into the parser: it must never
// panic, return a payload beyond the length bound or return a frame
// whose checksum would not verify, it must return the same frames and
// health counters whether the stream arrives whole, in 7-byte pieces or
// byte by byte, and it must keep accepting well-formed frames
// afterwards.
func FuzzFrameParser(f *testing.F) {
	f.Add(AppendScenario(nil, ScenarioSpec{Kind: KindStatic, Seed: 1, Dur: 1}))
	f.Add(AppendBatchEnd(nil, 1, 0))
	f.Add([]byte{FrameSync, FrameScenario, 0xFF, 0xFF, 0x00})
	f.Add(bytes.Repeat([]byte{FrameSync}, 64))
	f.Add(append([]byte{0x00, 0x17, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, AppendBatchEnd(nil, 2, 3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, wantFrames := parseSplit(t, data, len(data))
		wantN, wantBad, wantResyncs := whole.Stats()
		for _, fr := range wantFrames {
			if !bytes.Contains(data, AppendFrame(nil, fr.typ, []byte(fr.payload))) {
				t.Fatalf("frame %q is not in the input with a valid checksum", fr)
			}
		}
		var p *FrameParser
		for _, piece := range []int{7, 1} {
			var frames []parsedFrame
			p, frames = parseSplit(t, data, piece)
			if !reflect.DeepEqual(frames, wantFrames) {
				t.Fatalf("%d-byte pieces: frames %q, whole input: %q", piece, frames, wantFrames)
			}
			if n, bad, resyncs := p.Stats(); n != wantN || bad != wantBad || resyncs != wantResyncs {
				t.Fatalf("%d-byte pieces: stats %d/%d/%d, whole input: %d/%d/%d",
					piece, n, bad, resyncs, wantN, wantBad, wantResyncs)
			}
		}
		// The parser must still work after arbitrary garbage: a
		// pending bogus header can swallow at most maxFrameLen+5
		// bytes, so a bounded number of clean frames always flushes
		// it through to resync.
		good := AppendScenario(nil, ScenarioSpec{Kind: KindDynamic, Seed: 9, Dur: 2})
		attempts := 0
		p.Feed(good)
		for {
			typ, payload, ok := p.Next()
			if !ok {
				if attempts++; attempts > 10 {
					t.Fatal("parser lost a good frame after garbage")
				}
				p.Feed(good)
				continue
			}
			if typ == FrameScenario {
				if got, err := DecodeScenario(payload); err == nil && got.Seed == 9 {
					return
				}
			}
		}
	})
}

// TestWireResultRoundTrip covers the result codec against a fabricated
// result-like payload via encode/decode symmetry.
func TestWireResultRoundTrip(t *testing.T) {
	w := WireResult{
		Index: 3, Status: StatusOK,
		ErrorDeg:         [3]float64{0.1, 0.2, 0.3},
		ThreeSigmaDeg:    [3]float64{0.4, 0.5, 0.6},
		WithinConfidence: true, Steps: 1234,
		FinalMeasNoise: 0.02, MeanNIS: 1.9, ExceedanceRate: 0.01,
	}
	res := &system.Result{
		ErrorDeg:         w.ErrorDeg,
		ThreeSigmaDeg:    w.ThreeSigmaDeg,
		WithinConfidence: w.WithinConfidence,
		Steps:            int(w.Steps),
		FinalMeasNoise:   w.FinalMeasNoise,
		MeanNIS:          w.MeanNIS,
		ExceedanceRate:   w.ExceedanceRate,
	}
	frame := AppendResult(nil, w.Index, w.Status, res)
	var p FrameParser
	p.Feed(frame)
	typ, payload, ok := p.Next()
	if !ok || typ != FrameResult {
		t.Fatal("result frame did not parse")
	}
	got, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", got, w)
	}
}
