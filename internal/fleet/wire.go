package fleet

import (
	"bytes"
	"fmt"
	"math"

	"boresight/internal/system"
)

func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(u uint64) float64 { return math.Float64frombits(u) }

// The binary protocol reuses the repo's link-layer framing idiom (see
// internal/link): a sync byte, a type byte, a big-endian length, the
// payload, and a two's-complement checksum over everything after the
// sync, so a valid frame's bytes after the sync sum to zero:
//
//	0xFB | type | len_hi len_lo | payload... | checksum
//
// All multi-byte fields are big-endian, floats are IEEE-754 bit
// patterns — the same float64 always encodes to the same eight bytes,
// which is what makes "byte-identical replay" a checkable contract at
// the wire rather than an approximate one.
//
// A client session is: Hello, then any number of batches, each a run
// of Scenario frames closed by BatchEnd. The server answers each batch
// with one Result frame per scenario (in input order), Telemetry
// frames interleaved every telemetryEvery results (plus one final),
// and a closing BatchEnd echoing the admitted/shed counts. While a
// batch is running — before the first Result is ready — the server
// additionally streams Telemetry frames on a wall-clock interval (the
// Hello intervalMS field), so a long batch reports live health instead
// of going dark until the result boundary; clients must accept a
// Telemetry frame at any point in the reply stream.

// FrameSync is the frame header byte.
const FrameSync = 0xFB

// Frame types.
const (
	FrameHello     = 0x01 // client: version; server: version, workers, depth
	FrameScenario  = 0x02 // client → server: one ScenarioSpec
	FrameBatchEnd  = 0x03 // client: closes a batch; server: admitted, shed
	FrameResult    = 0x04 // server → client: one WireResult
	FrameTelemetry = 0x05 // server → client: a Telemetry snapshot
)

// Fixed payload sizes (every frame type is fixed-size; the length
// field exists for forward compatibility and resync, not variability).
const (
	helloLen     = 1 + 2 + 4 + 2 + 4 // version, workers, depth, telemetryEvery, intervalMS
	scenarioLen  = 1 + 1 + 2 + 4 + 8 + 8 + 8 + 24
	batchEndLen  = 4 + 4 // admitted, shed (zero from clients)
	resultLen    = 4 + 1 + 24 + 24 + 1 + 4 + 8 + 8 + 8
	telemetryLen = 8 * 8
)

// WireVersion is the protocol revision carried in Hello frames.
// Version 2 added the Hello intervalMS field (live mid-run telemetry
// cadence) and the Telemetry Tenants field.
const WireVersion = 2

// maxFrameLen bounds what the parser will buffer for a single frame.
const maxFrameLen = 256

func be16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
func be64(b []byte, v uint64) {
	be32(b, uint32(v>>32))
	be32(b[4:], uint32(v))
}
func rd16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func rd32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func rd64(b []byte) uint64 { return uint64(rd32(b))<<32 | uint64(rd32(b[4:])) }

func appendF64(dst []byte, v float64) []byte {
	var tmp [8]byte
	be64(tmp[:], f64bits(v))
	return append(dst, tmp[:]...)
}

// beginFrame appends the frame header for a payload of n bytes and
// returns the extended slice; endFrame seals the frame started at
// mark with its checksum.
func beginFrame(dst []byte, typ byte, n int) []byte {
	return append(dst, FrameSync, typ, byte(n>>8), byte(n))
}

func endFrame(dst []byte, mark int) []byte {
	var sum byte
	for _, b := range dst[mark+1:] {
		sum += b
	}
	return append(dst, byte(-sum))
}

// AppendFrame appends one complete frame carrying an opaque payload.
// All encoders are append-style so a serving loop can build its whole
// response into one reused buffer.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	mark := len(dst)
	dst = beginFrame(dst, typ, len(payload))
	dst = append(dst, payload...)
	return endFrame(dst, mark)
}

// AppendHello appends a Hello frame. Clients send their version with
// workers/depth zero, the per-result telemetry interval they want
// (telemetryEvery, in results) and the live mid-run telemetry cadence
// they want (intervalMS, in milliseconds; 0 = server default); servers
// echo the version, advertise their pool geometry and confirm the
// resolved intervals.
func AppendHello(dst []byte, workers, telemetryEvery uint16, depth, intervalMS uint32) []byte {
	mark := len(dst)
	dst = beginFrame(dst, FrameHello, helloLen)
	var b [helloLen]byte
	b[0] = WireVersion
	be16(b[1:], workers)
	be32(b[3:], depth)
	be16(b[7:], telemetryEvery)
	be32(b[9:], intervalMS)
	dst = append(dst, b[:]...)
	return endFrame(dst, mark)
}

// DecodeHello unpacks a Hello payload.
func DecodeHello(p []byte) (version byte, workers, telemetryEvery uint16, depth, intervalMS uint32, err error) {
	if len(p) != helloLen {
		return 0, 0, 0, 0, 0, fmt.Errorf("fleet: hello payload %d bytes, want %d", len(p), helloLen)
	}
	return p[0], rd16(p[1:]), rd16(p[7:]), rd32(p[3:]), rd32(p[9:]), nil
}

// AppendScenario appends one Scenario frame.
func AppendScenario(dst []byte, sp ScenarioSpec) []byte {
	mark := len(dst)
	dst = beginFrame(dst, FrameScenario, scenarioLen)
	var flags byte
	if sp.NoCalibrate {
		flags |= 1
	}
	dst = append(dst, byte(sp.Kind), flags)
	var b [14]byte
	be16(b[0:], sp.EstimateStride)
	be32(b[2:], sp.Tenant)
	be64(b[6:], uint64(sp.Seed))
	dst = append(dst, b[:]...)
	dst = appendF64(dst, sp.Dur)
	dst = appendF64(dst, sp.SampleRate)
	for _, d := range sp.MisDeg {
		dst = appendF64(dst, d)
	}
	return endFrame(dst, mark)
}

// DecodeScenario unpacks a Scenario payload into a spec value. The
// spec is NOT validated here — admission decides that, so a malformed
// spec sheds one scenario, not the connection.
func DecodeScenario(p []byte) (ScenarioSpec, error) {
	if len(p) != scenarioLen {
		return ScenarioSpec{}, fmt.Errorf("fleet: scenario payload %d bytes, want %d", len(p), scenarioLen)
	}
	sp := ScenarioSpec{
		Kind:           Kind(p[0]),
		NoCalibrate:    p[1]&1 != 0,
		EstimateStride: rd16(p[2:]),
		Tenant:         rd32(p[4:]),
		Seed:           int64(rd64(p[8:])),
		Dur:            f64frombits(rd64(p[16:])),
		SampleRate:     f64frombits(rd64(p[24:])),
	}
	for i := range sp.MisDeg {
		sp.MisDeg[i] = f64frombits(rd64(p[32+8*i:]))
	}
	return sp, nil
}

// AppendBatchEnd appends a BatchEnd frame. Clients send zeros; the
// server's closing BatchEnd reports how admission went.
func AppendBatchEnd(dst []byte, admitted, shed uint32) []byte {
	mark := len(dst)
	dst = beginFrame(dst, FrameBatchEnd, batchEndLen)
	var b [batchEndLen]byte
	be32(b[0:], admitted)
	be32(b[4:], shed)
	dst = append(dst, b[:]...)
	return endFrame(dst, mark)
}

// DecodeBatchEnd unpacks a BatchEnd payload.
func DecodeBatchEnd(p []byte) (admitted, shed uint32, err error) {
	if len(p) != batchEndLen {
		return 0, 0, fmt.Errorf("fleet: batchend payload %d bytes, want %d", len(p), batchEndLen)
	}
	return rd32(p), rd32(p[4:]), nil
}

// Result statuses carried in Result frames and the JSON schema.
const (
	StatusOK    = 0 // scenario ran; metrics follow
	StatusError = 1 // scenario rejected or failed; metrics are zero
	StatusShed  = 2 // queue full at admission; metrics are zero
)

// WireResult is the per-scenario serving result: the summary metrics a
// fleet consumer aggregates, without the bulky histories.
type WireResult struct {
	Index            uint32
	Status           byte
	ErrorDeg         [3]float64
	ThreeSigmaDeg    [3]float64
	WithinConfidence bool
	Steps            uint32
	FinalMeasNoise   float64
	MeanNIS          float64
	ExceedanceRate   float64
}

// AppendResult appends one Result frame. res may be nil for non-OK
// statuses.
func AppendResult(dst []byte, index uint32, status byte, res *system.Result) []byte {
	mark := len(dst)
	dst = beginFrame(dst, FrameResult, resultLen)
	var b [5]byte
	be32(b[0:], index)
	b[4] = status
	dst = append(dst, b[:]...)
	if status != StatusOK || res == nil {
		for i := 0; i < resultLen-5; i++ {
			dst = append(dst, 0)
		}
		return endFrame(dst, mark)
	}
	for _, v := range res.ErrorDeg {
		dst = appendF64(dst, v)
	}
	for _, v := range res.ThreeSigmaDeg {
		dst = appendF64(dst, v)
	}
	var within byte
	if res.WithinConfidence {
		within = 1
	}
	var c [5]byte
	c[0] = within
	be32(c[1:], uint32(res.Steps))
	dst = append(dst, c[:]...)
	dst = appendF64(dst, res.FinalMeasNoise)
	dst = appendF64(dst, res.MeanNIS)
	dst = appendF64(dst, res.ExceedanceRate)
	return endFrame(dst, mark)
}

// DecodeResult unpacks a Result payload.
func DecodeResult(p []byte) (WireResult, error) {
	if len(p) != resultLen {
		return WireResult{}, fmt.Errorf("fleet: result payload %d bytes, want %d", len(p), resultLen)
	}
	w := WireResult{
		Index:            rd32(p),
		Status:           p[4],
		WithinConfidence: p[53] != 0,
		Steps:            rd32(p[54:]),
		FinalMeasNoise:   f64frombits(rd64(p[58:])),
		MeanNIS:          f64frombits(rd64(p[66:])),
		ExceedanceRate:   f64frombits(rd64(p[74:])),
	}
	for i := range w.ErrorDeg {
		w.ErrorDeg[i] = f64frombits(rd64(p[5+8*i:]))
		w.ThreeSigmaDeg[i] = f64frombits(rd64(p[29+8*i:]))
	}
	return w, nil
}

// Telemetry is one snapshot of the server's admission counters — the
// stream a binary client receives interleaved with results (every
// telemetryEvery completed results) and, since wire version 2, on a
// wall-clock interval while a batch is still running. Tenants counts
// the tenants the server has seen; per-tenant rows are the HTTP
// /v1/stats surface.
type Telemetry struct {
	Admitted, Completed, Shed, Failed uint64
	Inflight, Queued, PeakInflight    uint64
	Tenants                           uint64
}

// AppendTelemetry appends one Telemetry frame.
func AppendTelemetry(dst []byte, t Telemetry) []byte {
	mark := len(dst)
	dst = beginFrame(dst, FrameTelemetry, telemetryLen)
	for _, v := range [8]uint64{t.Admitted, t.Completed, t.Shed, t.Failed, t.Inflight, t.Queued, t.PeakInflight, t.Tenants} {
		var b [8]byte
		be64(b[:], v)
		dst = append(dst, b[:]...)
	}
	return endFrame(dst, mark)
}

// DecodeTelemetry unpacks a Telemetry payload.
func DecodeTelemetry(p []byte) (Telemetry, error) {
	if len(p) != telemetryLen {
		return Telemetry{}, fmt.Errorf("fleet: telemetry payload %d bytes, want %d", len(p), telemetryLen)
	}
	return Telemetry{
		Admitted: rd64(p), Completed: rd64(p[8:]), Shed: rd64(p[16:]), Failed: rd64(p[24:]),
		Inflight: rd64(p[32:]), Queued: rd64(p[40:]), PeakInflight: rd64(p[48:]),
		Tenants: rd64(p[56:]),
	}, nil
}

// FrameParser reassembles frames from a byte stream, in place: bytes
// are buffered in one growing-then-stable backing array and parsed from
// a read offset, resync after corruption follows the link-layer
// parsers' drop-to-sync discipline, and returned payloads alias the
// internal buffer (valid until the next Feed or Reset call), so a
// steady-state read loop allocates nothing and moves each buffered byte
// at most once per Feed.
type FrameParser struct {
	buf []byte
	off int // start of the bytes not yet parsed

	// skipping is set while a run of non-sync bytes reaches the end of
	// the buffer: the run may go on in the next Feed and counts as one
	// resync however the stream was split.
	skipping bool

	frames, badSum, resyncs int
}

// Reset discards buffered bytes and zeroes the health counters,
// keeping the backing array.
func (p *FrameParser) Reset() {
	p.buf = p.buf[:0]
	p.off = 0
	p.skipping = false
	p.frames, p.badSum, p.resyncs = 0, 0, 0
}

// Feed appends raw stream bytes for parsing. It first drops the bytes
// Next has consumed, which ends the life of every payload it returned.
func (p *FrameParser) Feed(data []byte) {
	if p.off > 0 {
		n := copy(p.buf, p.buf[p.off:])
		p.buf = p.buf[:n]
		p.off = 0
	}
	p.buf = append(p.buf, data...)
}

// Next extracts the next checksum-valid frame and advances past it. The
// returned payload aliases the parser's buffer: it is valid until the
// next Feed or Reset call, so a caller may hold every payload of one
// fed chunk at once. ok=false means more bytes are needed.
func (p *FrameParser) Next() (typ byte, payload []byte, ok bool) {
	for {
		b := p.buf[p.off:]
		if len(b) == 0 {
			return 0, nil, false
		}
		if b[0] != FrameSync {
			p.dropToSync()
			continue
		}
		p.skipping = false
		if len(b) < 4 {
			return 0, nil, false
		}
		n := int(rd16(b[2:]))
		if n <= maxFrameLen {
			total := 4 + n + 1
			if len(b) < total {
				return 0, nil, false
			}
			var sum byte
			for _, c := range b[1:total] {
				sum += c
			}
			if sum == 0 {
				p.frames++
				p.off += total
				return b[1], b[4 : 4+n], true
			}
		}
		// A bad checksum, or a length no defined frame has: drop the
		// sync byte and resync, rather than wait for an
		// attacker-chosen amount of bytes.
		p.badSum++
		p.resyncs++
		p.off++
	}
}

// dropToSync skips the non-sync bytes at the read offset, up to the
// next sync byte or the end of the buffer.
func (p *FrameParser) dropToSync() {
	if !p.skipping {
		p.resyncs++
	}
	b := p.buf[p.off:]
	i := bytes.IndexByte(b, FrameSync)
	p.skipping = i < 0
	if p.skipping {
		i = len(b)
	}
	p.off += i
}

// Stats returns parser health counters (frames parsed, checksum
// failures, resynchronisations). They depend only on the bytes fed, not
// on how the stream was split into Feed calls.
func (p *FrameParser) Stats() (frames, badSum, resyncs int) {
	return p.frames, p.badSum, p.resyncs
}
