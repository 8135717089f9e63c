package link

import "boresight/internal/canbus"

// The CAN-to-RS232 bridge re-encapsulates each received CAN frame in a
// simple serial packet so the FPGA needs only a second UART rather than
// a CAN controller — the paper's stated reason for the converter
// (Section 7):
//
//	0xAA 0x55 | id_hi id_lo | dlc | data[dlc] | checksum
//
// where checksum is the two's-complement of the byte sum from id_hi to
// the last data byte, so a verifier adding every byte including the
// checksum gets zero.

// Bridge header bytes.
const (
	BridgeSync0 = 0xAA
	BridgeSync1 = 0x55
)

// BridgeEncode wraps one CAN frame in the bridge's serial packet format.
func BridgeEncode(f canbus.Frame) []byte {
	return AppendBridge(make([]byte, 0, 6+len(f.Data)), f)
}

// AppendBridge appends the frame's bridge packet (see BridgeEncode) to
// dst.
func AppendBridge(dst []byte, f canbus.Frame) []byte {
	start := len(dst)
	dst = append(dst, BridgeSync0, BridgeSync1,
		byte(f.ID>>8), byte(f.ID), byte(len(f.Data)))
	dst = append(dst, f.Data...)
	var sum byte
	for _, b := range dst[start+2:] {
		sum += b
	}
	return append(dst, byte(-sum))
}

// BridgeParser reassembles CAN frames from the bridge's serial byte
// stream. It resynchronises on the 0xAA 0x55 header after corruption.
//
// The parser allocates nothing in steady state: its reassembly buffer
// is compacted in place (bounded by the 14-byte maximum packet), and a
// delivered frame's Data aliases parser-owned scratch that is valid
// until the next Push — callers that retain the payload must copy it,
// the same borrowing rule as the kalman package's Innovation.
type BridgeParser struct {
	buf     []byte
	data    [8]byte // payload scratch aliased by delivered frames
	frames  int
	badSum  int
	badDLC  int
	resyncs int
}

// Reset discards buffered bytes and zeroes the health counters while
// keeping the reassembly buffer's backing array — a pooled serving
// runner resets its parsers between scenarios so one run's trailing
// partial packet can never leak into the next.
func (p *BridgeParser) Reset() {
	p.buf = p.buf[:0]
	p.frames, p.badSum, p.badDLC, p.resyncs = 0, 0, 0, 0
}

// drop discards the first k buffered bytes, compacting in place so the
// backing array never migrates (the zero-allocation property).
func (p *BridgeParser) drop(k int) {
	n := copy(p.buf, p.buf[k:])
	p.buf = p.buf[:n]
}

// Push consumes one received byte; when a complete, checksum-valid
// packet is assembled it returns the reconstructed CAN frame and true.
// The frame's Data borrows parser scratch valid until the next Push.
func (p *BridgeParser) Push(b byte) (canbus.Frame, bool) {
	p.buf = append(p.buf, b)
	for {
		// Hunt for the sync pattern.
		if len(p.buf) >= 1 && p.buf[0] != BridgeSync0 {
			p.dropToSync()
			continue
		}
		if len(p.buf) >= 2 && p.buf[1] != BridgeSync1 {
			p.drop(1)
			p.resyncs++
			continue
		}
		if len(p.buf) < 5 {
			return canbus.Frame{}, false
		}
		dlc := int(p.buf[4])
		if dlc > 8 {
			p.badDLC++
			p.drop(1)
			p.resyncs++
			continue
		}
		total := 6 + dlc
		if len(p.buf) < total {
			return canbus.Frame{}, false
		}
		var sum byte
		for _, x := range p.buf[2:total] {
			sum += x
		}
		if sum != 0 {
			p.badSum++
			p.drop(1)
			p.resyncs++
			continue
		}
		copy(p.data[:], p.buf[5:5+dlc])
		f := canbus.Frame{
			ID:   uint16(p.buf[2])<<8 | uint16(p.buf[3]),
			Data: p.data[:dlc],
		}
		p.drop(total)
		p.frames++
		return f, true
	}
}

func (p *BridgeParser) dropToSync() {
	for i, b := range p.buf {
		if b == BridgeSync0 {
			if i > 0 {
				p.resyncs++
			}
			p.drop(i)
			return
		}
	}
	if len(p.buf) > 0 {
		p.resyncs++
	}
	p.buf = p.buf[:0]
}

// Stats returns parser health counters: good frames, checksum failures,
// bad length fields, and resynchronisation events.
func (p *BridgeParser) Stats() (frames, badSum, badDLC, resyncs int) {
	return p.frames, p.badSum, p.badDLC, p.resyncs
}
