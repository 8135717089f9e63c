// Package canbus implements CAN 2.0A (11-bit identifier) data frames at
// the bit level: field layout, CRC-15 generation and checking, and the
// bit-stuffing rule. The paper's IMU speaks CAN; its frames cross a
// CAN-to-RS232 bridge (package link) before reaching the FPGA, and this
// package regenerates exactly the bit stream that bridge consumes.
//
// Bits are represented as bools where true is the recessive bus level
// (logic 1) and false is dominant (logic 0), matching the convention
// that a dominant start-of-frame bit wins arbitration.
package canbus

import (
	"errors"
	"fmt"
)

// Frame is a CAN 2.0A data frame payload: an 11-bit identifier and up to
// 8 data bytes.
type Frame struct {
	ID   uint16 // 11-bit identifier (0..0x7FF)
	Data []byte // 0..8 bytes
}

// Errors returned by Decode.
var (
	ErrFrameTooShort = errors.New("canbus: bit stream too short for a frame")
	ErrBadSOF        = errors.New("canbus: missing dominant start-of-frame bit")
	ErrBadCRC        = errors.New("canbus: CRC mismatch")
	ErrBadStuffing   = errors.New("canbus: bit-stuffing violation")
	ErrBadDelimiter  = errors.New("canbus: CRC delimiter not recessive")
	ErrBadDLC        = errors.New("canbus: data length code > 8")
)

// crc15Poly is the CAN CRC polynomial x^15+x^14+x^10+x^8+x^7+x^4+x^3+1.
const crc15Poly = 0x4599

// CRC15 computes the CAN CRC over a bit sequence.
func CRC15(bits []bool) uint16 {
	var crc uint16
	for _, b := range bits {
		bit := uint16(0)
		if b {
			bit = 1
		}
		crcNext := bit ^ (crc >> 14)
		crc = (crc << 1) & 0x7FFF
		if crcNext != 0 {
			crc ^= crc15Poly
		}
	}
	return crc
}

// appendBits appends the low n bits of v, most significant first.
func appendBits(dst []bool, v uint32, n int) []bool {
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, v>>uint(i)&1 == 1)
	}
	return dst
}

// Stuff applies the CAN bit-stuffing rule: after five consecutive equal
// bits, a complementary bit is inserted.
func Stuff(bits []bool) []bool {
	return appendStuffed(make([]bool, 0, len(bits)+len(bits)/5), bits)
}

// appendStuffed appends the stuffed form of bits to dst.
func appendStuffed(dst, bits []bool) []bool {
	run := 0
	var last bool
	for i, b := range bits {
		if i > 0 && b == last {
			run++
		} else {
			run = 1
		}
		dst = append(dst, b)
		last = b
		if run == 5 {
			dst = append(dst, !b)
			last = !b
			run = 1
		}
	}
	return dst
}

// Unstuff removes stuffing bits, returning ErrBadStuffing if six equal
// bits appear in a row (a stuff error on a real bus).
func Unstuff(bits []bool) ([]bool, error) {
	out := make([]bool, 0, len(bits))
	run := 0
	var last bool
	skip := false
	for i, b := range bits {
		if skip {
			// This position must be the complement of the previous run.
			if b == last {
				return nil, ErrBadStuffing
			}
			skip = false
			last = b
			run = 1
			continue
		}
		if i > 0 && b == last {
			run++
		} else {
			run = 1
		}
		out = append(out, b)
		last = b
		if run == 5 {
			skip = true
		}
	}
	return out, nil
}

// maxRawBits is the longest unstuffed span a frame has: SOF, 11-bit
// identifier, RTR, IDE, r0, 4-bit DLC, 8 data bytes and the 15-bit CRC.
const maxRawBits = 34 + 8*8

// Encode serialises the frame to the stuffed bus bit sequence:
// SOF, arbitration (ID + RTR), control (IDE, r0, DLC), data, CRC —
// all stuffed — followed by the unstuffed CRC delimiter, ACK slot,
// ACK delimiter and 7 recessive end-of-frame bits.
func (f Frame) Encode() ([]bool, error) { return f.AppendEncode(nil) }

// AppendEncode appends the frame's bus bit sequence (see Encode) to dst.
// It allocates nothing when dst has room for the frame.
func (f Frame) AppendEncode(dst []bool) ([]bool, error) {
	if f.ID > 0x7FF {
		return dst, fmt.Errorf("canbus: identifier %#x exceeds 11 bits", f.ID)
	}
	if len(f.Data) > 8 {
		return dst, fmt.Errorf("canbus: %d data bytes exceeds 8", len(f.Data))
	}
	var buf [maxRawBits]bool
	raw := buf[:0]
	raw = append(raw, false)                      // SOF, dominant
	raw = appendBits(raw, uint32(f.ID), 11)       // identifier
	raw = append(raw, false)                      // RTR dominant = data frame
	raw = append(raw, false, false)               // IDE, r0
	raw = appendBits(raw, uint32(len(f.Data)), 4) // DLC
	for _, b := range f.Data {
		raw = appendBits(raw, uint32(b), 8)
	}
	crc := CRC15(raw)
	raw = appendBits(raw, uint32(crc), 15)
	dst = appendStuffed(dst, raw)
	dst = append(dst, true)  // CRC delimiter
	dst = append(dst, false) // ACK slot (driven dominant by a receiver)
	dst = append(dst, true)  // ACK delimiter
	for i := 0; i < 7; i++ { // end of frame
		dst = append(dst, true)
	}
	return dst, nil
}

// Decode parses one frame from the start of a stuffed bit stream,
// returning the frame and the number of bits consumed.
func Decode(bits []bool) (Frame, int, error) {
	return DecodeInto(bits, new([8]byte))
}

// DecodeInto is Decode with the frame's payload written to data: the
// returned Frame's Data aliases data, and nothing is allocated.
func DecodeInto(bits []bool, data *[8]byte) (Frame, int, error) {
	// Minimum frame: 1+11+1+2+4+15 = 34 raw bits before stuffing, plus
	// trailer. Find the stuffed span first: we must unstuff
	// incrementally because the DLC determines the length.
	if len(bits) < 34 {
		return Frame{}, 0, ErrFrameTooShort
	}
	if bits[0] {
		return Frame{}, 0, ErrBadSOF
	}
	// Incremental unstuffing: walk the stuffed stream, collecting
	// unstuffed bits until we have header+data+CRC.
	var buf [maxRawBits]bool
	raw := buf[:0]
	run := 0
	var last bool
	i := 0
	need := 34 // updated once DLC is known
	dlcKnown := false
	for i < len(bits) && len(raw) < need {
		b := bits[i]
		if i > 0 && run == 5 {
			// Stuff bit: must differ from previous.
			if b == last {
				return Frame{}, 0, ErrBadStuffing
			}
			last = b
			run = 1
			i++
			continue
		}
		if i > 0 && b == last {
			run++
		} else {
			run = 1
		}
		raw = append(raw, b)
		last = b
		i++
		if !dlcKnown && len(raw) == 19 {
			dlc := bitsToUint(raw[15:19])
			if dlc > 8 {
				return Frame{}, 0, ErrBadDLC
			}
			need = 34 + int(dlc)*8
			dlcKnown = true
		}
	}
	if len(raw) < need {
		return Frame{}, 0, ErrFrameTooShort
	}
	// If the CRC field itself ended a five-bit run, the transmitter
	// appended one final stuff bit after it; skip that before the
	// delimiter.
	if run == 5 {
		if i >= len(bits) {
			return Frame{}, 0, ErrFrameTooShort
		}
		if bits[i] == last {
			return Frame{}, 0, ErrBadStuffing
		}
		i++
	}
	// Verify CRC over everything before the CRC field.
	body := raw[:need-15]
	wantCRC := uint16(bitsToUint(raw[need-15 : need]))
	if CRC15(body) != wantCRC {
		return Frame{}, 0, ErrBadCRC
	}
	// CRC delimiter must be recessive.
	if i >= len(bits) || !bits[i] {
		return Frame{}, 0, ErrBadDelimiter
	}
	i++ // CRC delimiter
	// ACK slot, ACK delimiter, 7 EOF bits: consume if present (a decoder
	// at end-of-capture tolerates truncation after the delimiter).
	for k := 0; k < 9 && i < len(bits); k++ {
		i++
	}
	dlc := int(bitsToUint(raw[15:19]))
	f := Frame{ID: uint16(bitsToUint(raw[1:12])), Data: data[:dlc]}
	for d := range f.Data {
		f.Data[d] = byte(bitsToUint(raw[19+8*d : 27+8*d]))
	}
	return f, i, nil
}

func bitsToUint(bits []bool) uint32 {
	var v uint32
	for _, b := range bits {
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v
}

// FlipBit returns a copy of bits with position i inverted — an injected
// single-bit bus error for robustness tests.
func FlipBit(bits []bool, i int) []bool {
	out := make([]bool, len(bits))
	copy(out, bits)
	out[i] = !out[i]
	return out
}
