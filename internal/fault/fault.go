// Package fault models the failure modes of the physical links in the
// paper's Figure 2 — the RS232 line from the ACC head and the
// CAN-to-RS232 bridge output — so the transport chain can be tested
// under the conditions a vehicle harness actually produces: EMI bit
// errors, connector dropouts, burst corruption, line breaks and
// delivery jitter.
//
// The model is deterministic: every random draw comes from a seeded
// generator owned by the Channel, so an identical (Profile, seed) pair
// replays an identical fault sequence. That property is what lets the
// system-level replay harness keep byte-identical Results with faults
// enabled at every worker count.
//
// Bit errors are not applied to bytes directly: each surviving byte is
// run through the real 8N1 encode path (package serial), the configured
// BER flips line bits, and a persistent UART receiver decodes the
// result — so a flipped stop bit raises a genuine framing error, a
// flipped start bit slips the framing, and the downstream packet
// parsers see exactly the byte stream a damaged line would hand them.
package fault

import (
	"math/rand"

	"boresight/internal/rng"
	"boresight/internal/serial"
)

// Profile configures the channel fault model for one link. The zero
// value is a transparent (fault-free) channel.
type Profile struct {
	// BER is the line bit error rate: each 8N1 line bit of each
	// transported byte is flipped with this probability.
	BER float64
	// DropProb is the per-byte probability the byte is lost outright
	// (a receive-FIFO overrun or connector micro-cut).
	DropProb float64
	// DupProb is the per-byte probability the byte is delivered twice
	// (a retransmission artefact).
	DupProb float64
	// BurstProb is the per-byte probability an EMI burst starts;
	// BurstLen consecutive bytes are then XOR-corrupted before
	// encoding. BurstLen defaults to 4.
	BurstProb float64
	BurstLen  int
	// LineBreakProb is the per-byte probability the line breaks
	// (sticks low); LineBreakLen byte-times of held-low line are fed
	// to the receiver instead of data, raising a framing error and
	// losing the covered bytes. LineBreakLen defaults to 8.
	LineBreakProb float64
	LineBreakLen  int
	// JitterProb is the per-sample probability delivery jitter holds
	// back a tail of up to JitterMaxBytes received bytes until the
	// next sample — packets then straddle sample boundaries and the
	// parsers must reassemble across them. JitterMaxBytes defaults
	// to 4.
	JitterProb     float64
	JitterMaxBytes int
	// StaleAfter is the link supervisor's staleness threshold: after
	// this many consecutive samples without a good packet the stream
	// is declared stale and held values must no longer be trusted.
	// Defaults to 5.
	StaleAfter int
	// Seed is folded into the channel seed so two runs that differ
	// only in Seed replay different fault sequences.
	Seed int64
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.BER > 0 || p.DropProb > 0 || p.DupProb > 0 ||
		p.BurstProb > 0 || p.LineBreakProb > 0 || p.JitterProb > 0
}

// burstLen returns the configured burst length with its default.
func (p Profile) burstLen() int {
	if p.BurstLen > 0 {
		return p.BurstLen
	}
	return 4
}

func (p Profile) lineBreakLen() int {
	if p.LineBreakLen > 0 {
		return p.LineBreakLen
	}
	return 8
}

func (p Profile) jitterMaxBytes() int {
	if p.JitterMaxBytes > 0 {
		return p.JitterMaxBytes
	}
	return 4
}

// StaleThreshold returns the supervisor staleness threshold with its
// default applied.
func (p Profile) StaleThreshold() int {
	if p.StaleAfter > 0 {
		return p.StaleAfter
	}
	return 5
}

// Stats counts what a channel did to the stream — the per-link half of
// the degradation telemetry a Result reports.
type Stats struct {
	// Bytes is the number of bytes offered to the channel.
	Bytes int
	// BitErrors is the number of line bits the BER process flipped.
	BitErrors int
	// FramingErrors is the number of UART framing errors the receiver
	// saw (flipped stop bits, breaks, slips).
	FramingErrors int
	// Dropped and Duplicated count byte-level drop/dup events.
	Dropped    int
	Duplicated int
	// Bursts and LineBreaks count corruption-burst and line-break
	// events (not the bytes they covered).
	Bursts     int
	LineBreaks int
	// Deferred is the number of received bytes delivery jitter pushed
	// across a sample boundary.
	Deferred int
}

// Channel is a deterministic fault-injecting serial channel. Feed each
// sample's transmitted bytes to Transmit and wire the returned bytes
// into the receive-side parser; the channel keeps UART state across
// calls, so framing slips and jittered bytes carry over sample
// boundaries exactly as they do on a real line.
//
// A Channel composes onto a serial.Port naturally: send the transmit
// bytes through the channel first and the faulted bytes through the
// port (port.Send(ch.Transmit(data))) to add baud-rate timing on top
// of the fault model.
type Channel struct {
	prof  Profile
	rng   *rand.Rand
	dec   serial.Decoder
	stats Stats

	burstLeft int // bytes remaining in the current corruption burst
	breakLeft int // byte-times remaining in the current line break

	// Reused buffers: Transmit's return value aliases out and is valid
	// until the next call. Steady state allocates nothing.
	out   []byte
	bits  []bool
	carry []byte
}

// NewChannel builds a channel for the profile. seed is the owning
// run's seed; the profile's own Seed is folded in so per-link channels
// inside one run draw independent sequences.
func NewChannel(prof Profile, seed int64) *Channel {
	c := &Channel{
		rng:  rand.New(new(rng.Source)),
		out:  make([]byte, 0, 64),
		bits: make([]bool, 0, 2*serial.BitsPerByte),
	}
	c.Reset(prof, seed)
	return c
}

// Reset re-initialises the channel in place for a new run: afterwards it
// behaves exactly as NewChannel(prof, seed) would — same fault sequence,
// zeroed counters, an idle receiver, no jittered bytes pending — while
// keeping its generator and buffers, so a pooled runner's linked runs
// allocate nothing.
func (c *Channel) Reset(prof Profile, seed int64) {
	c.prof = prof
	c.rng.Seed(seed ^ (prof.Seed * 0x5E3779B97F4A7C15))
	c.dec = serial.Decoder{}
	c.stats = Stats{}
	c.burstLeft, c.breakLeft = 0, 0
	c.out, c.bits, c.carry = c.out[:0], c.bits[:0], c.carry[:0]
}

// Stats returns the channel's cumulative fault counters.
func (c *Channel) Stats() Stats { return c.stats }

// Transmit passes one sample's byte stream through the channel and
// returns the bytes the receiver actually gets. The returned slice
// aliases an internal buffer valid until the next Transmit call.
func (c *Channel) Transmit(data []byte) []byte {
	c.out = c.out[:0]
	if len(c.carry) > 0 {
		c.out = append(c.out, c.carry...)
		c.carry = c.carry[:0]
	}
	if !c.prof.Enabled() {
		c.out = append(c.out, data...)
		c.stats.Bytes += len(data)
		return c.out
	}
	for _, b := range data {
		c.stats.Bytes++
		// Line break: the line sticks low for a number of byte-times,
		// swallowing this byte (and the following ones while it lasts).
		if c.breakLeft == 0 && c.prof.LineBreakProb > 0 && c.rng.Float64() < c.prof.LineBreakProb {
			c.breakLeft = c.prof.lineBreakLen()
			c.stats.LineBreaks++
		}
		if c.breakLeft > 0 {
			c.breakLeft--
			c.pushHeldLow()
			continue
		}
		// Byte-level drop.
		if c.prof.DropProb > 0 && c.rng.Float64() < c.prof.DropProb {
			c.stats.Dropped++
			continue
		}
		// Burst corruption: XOR the byte before it hits the line.
		if c.burstLeft == 0 && c.prof.BurstProb > 0 && c.rng.Float64() < c.prof.BurstProb {
			c.burstLeft = c.prof.burstLen()
			c.stats.Bursts++
		}
		if c.burstLeft > 0 {
			c.burstLeft--
			b ^= byte(1 + c.rng.Intn(255))
		}
		c.pushByte(b)
		// Duplication delivers the (possibly corrupted) byte twice.
		if c.prof.DupProb > 0 && c.rng.Float64() < c.prof.DupProb {
			c.stats.Duplicated++
			c.pushByte(b)
		}
	}
	// Delivery jitter: hold back a tail of the received bytes until the
	// next sample, so packets straddle the sample boundary.
	if c.prof.JitterProb > 0 && len(c.out) > 1 && c.rng.Float64() < c.prof.JitterProb {
		k := 1 + c.rng.Intn(c.prof.jitterMaxBytes())
		if k >= len(c.out) {
			k = len(c.out) - 1
		}
		cut := len(c.out) - k
		c.carry = append(c.carry[:0], c.out[cut:]...)
		c.out = c.out[:cut]
		c.stats.Deferred += k
	}
	return c.out
}

// pushByte runs one byte through the 8N1 line with the configured BER
// and appends whatever the persistent UART receiver recovers. Every
// byte crosses the real encode/decode path — even at BER 0 — so the
// receiver's framing state stays faithful across breaks and slips.
func (c *Channel) pushByte(b byte) {
	c.bits = serial.AppendByteBits(c.bits[:0], b)
	if c.prof.BER > 0 {
		for i := range c.bits {
			if c.rng.Float64() < c.prof.BER {
				c.bits[i] = !c.bits[i]
				c.stats.BitErrors++
			}
		}
	}
	c.pushBits()
}

// pushHeldLow feeds one byte-time of stuck-low line to the receiver.
func (c *Channel) pushHeldLow() {
	c.bits = c.bits[:0]
	for i := 0; i < serial.BitsPerByte; i++ {
		c.bits = append(c.bits, false)
	}
	c.pushBits()
}

// pushBits drains the bit buffer through the receiver state machine,
// appending completed bytes and counting framing errors. One idle bit
// follows each byte (the sensors' microcontrollers do not saturate the
// line), which is what lets the receiver re-arm after an error without
// eating the next real byte.
func (c *Channel) pushBits() {
	before := c.dec.FramingErrors()
	for _, bit := range c.bits {
		if b, ok, _ := c.dec.Push(bit); ok {
			c.out = append(c.out, b)
		}
	}
	// Inter-byte idle bit.
	if b, ok, _ := c.dec.Push(true); ok {
		c.out = append(c.out, b)
	}
	c.stats.FramingErrors += c.dec.FramingErrors() - before
}
