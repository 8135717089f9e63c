// Package link implements the wire protocols between the sensors and
// the FPGA platform in the paper's Figure 2: the DMU's CAN messages, the
// CAN-to-RS232 bridge framing, and the ACC's serial packet format, plus
// the byte-stream parsers (reassembly state machines) the FPGA-side
// drivers run. Parsers tolerate garbage, truncation and corruption by
// resynchronising on the next header.
package link

import (
	"errors"
	"fmt"

	"boresight/internal/canbus"
	"boresight/internal/geom"
)

// CAN identifiers used by the DMU.
const (
	// IDDMURates carries the three gyro rates.
	IDDMURates = 0x100
	// IDDMUAccels carries the three accelerometer outputs.
	IDDMUAccels = 0x101
)

// Fixed-point scaling of the DMU payloads.
var (
	// RateLSB is the angular-rate resolution: 0.01 °/s per count.
	RateLSB = geom.Deg2Rad(0.01)
	// AccelLSB is the acceleration resolution: 1 mm/s² per count.
	AccelLSB = 0.001
)

// Errors returned by the decoders.
var (
	ErrUnknownID   = errors.New("link: unknown CAN identifier")
	ErrShortFrame  = errors.New("link: frame payload too short")
	ErrBadChecksum = errors.New("link: packet checksum mismatch")
)

// DMURates is the decoded content of a rates CAN frame.
type DMURates struct {
	Seq  byte
	Rate geom.Vec3 // rad/s
}

// DMUAccels is the decoded content of an accels CAN frame.
type DMUAccels struct {
	Seq   byte
	Accel geom.Vec3 // m/s²
}

func clampI16(v float64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

func put3xI16(dst []byte, v geom.Vec3, lsb float64) {
	for i := 0; i < 3; i++ {
		c := clampI16(v[i]/lsb + 0.5*sign(v[i]))
		dst[2*i] = byte(uint16(c) >> 8)
		dst[2*i+1] = byte(uint16(c))
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func get3xI16(src []byte, lsb float64) geom.Vec3 {
	var out geom.Vec3
	for i := 0; i < 3; i++ {
		c := int16(uint16(src[2*i])<<8 | uint16(src[2*i+1]))
		out[i] = float64(c) * lsb
	}
	return out
}

// EncodeDMURates packs gyro rates into a CAN frame: three big-endian
// int16 counts, a sequence byte, and a reserved byte.
func EncodeDMURates(seq byte, rate geom.Vec3) canbus.Frame {
	data := make([]byte, 8)
	put3xI16(data, rate, RateLSB)
	data[6] = seq
	return canbus.Frame{ID: IDDMURates, Data: data}
}

// EncodeDMUAccels packs accelerometer outputs into a CAN frame.
func EncodeDMUAccels(seq byte, accel geom.Vec3) canbus.Frame {
	return DMUAccelsFrame(new([8]byte), seq, accel)
}

// DMUAccelsFrame is EncodeDMUAccels with the payload packed into data,
// which the returned frame's Data aliases; it allocates nothing.
func DMUAccelsFrame(data *[8]byte, seq byte, accel geom.Vec3) canbus.Frame {
	*data = [8]byte{}
	put3xI16(data[:], accel, AccelLSB)
	data[6] = seq
	return canbus.Frame{ID: IDDMUAccels, Data: data[:]}
}

// DecodeDMUFrame interprets a CAN frame from the DMU. It returns either
// a *DMURates or a *DMUAccels.
func DecodeDMUFrame(f canbus.Frame) (interface{}, error) {
	if len(f.Data) < 7 {
		return nil, ErrShortFrame
	}
	switch f.ID {
	case IDDMURates:
		return &DMURates{Seq: f.Data[6], Rate: get3xI16(f.Data, RateLSB)}, nil
	case IDDMUAccels:
		a, _ := DecodeDMUAccels(f)
		return &a, nil
	default:
		return nil, fmt.Errorf("%w: %#x", ErrUnknownID, f.ID)
	}
}

// DecodeDMUAccels interprets f as an accelerometer frame, the one DMU
// frame the boresight filter consumes, without allocating: ok is false
// for a frame DecodeDMUFrame would reject or decode as another type.
func DecodeDMUAccels(f canbus.Frame) (a DMUAccels, ok bool) {
	if f.ID != IDDMUAccels || len(f.Data) < 7 {
		return a, false
	}
	return DMUAccels{Seq: f.Data[6], Accel: get3xI16(f.Data, AccelLSB)}, true
}
