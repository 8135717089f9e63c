package canbus

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f := Frame{ID: uint16(rng.Intn(0x800)), Data: make([]byte, rng.Intn(9))}
		rng.Read(f.Data)
		bits, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := Decode(bits)
		if err != nil {
			t.Fatalf("decode: %v (frame %+v)", err, f)
		}
		if n != len(bits) {
			t.Fatalf("consumed %d of %d bits", n, len(bits))
		}
		if got.ID != f.ID || !bytes.Equal(got.Data, f.Data) {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
		// The append and in-place forms produce the same bits and frame
		// after whatever the buffers already hold.
		prefix := []bool{true, false, true}
		appended, err := f.AppendEncode(prefix)
		if err != nil || !slices.Equal(appended[:len(prefix)], prefix) || !slices.Equal(appended[len(prefix):], bits) {
			t.Fatalf("AppendEncode after a prefix differs from Encode (frame %+v)", f)
		}
		data := [8]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
		in, m, err := DecodeInto(bits, &data)
		if err != nil || m != n || in.ID != f.ID || !bytes.Equal(in.Data, f.Data) {
			t.Fatalf("DecodeInto differs from Decode (frame %+v)", f)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := (Frame{ID: 0x800}).Encode(); err == nil {
		t.Fatal("12-bit ID accepted")
	}
	if _, err := (Frame{ID: 1, Data: make([]byte, 9)}).Encode(); err == nil {
		t.Fatal("9-byte payload accepted")
	}
}

func TestStuffingInsertsAfterFiveEqualBits(t *testing.T) {
	bits := []bool{false, false, false, false, false, false} // six zeros
	stuffed := Stuff(bits)
	// After 5 zeros a one is inserted: 00000 1 0.
	want := []bool{false, false, false, false, false, true, false}
	if len(stuffed) != len(want) {
		t.Fatalf("stuffed length %d, want %d", len(stuffed), len(want))
	}
	for i := range want {
		if stuffed[i] != want[i] {
			t.Fatalf("stuffed[%d] = %v", i, stuffed[i])
		}
	}
}

func TestStuffUnstuffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(120)
		bits := make([]bool, n)
		for j := range bits {
			// Biased toward runs to exercise stuffing.
			if j > 0 && rng.Float64() < 0.7 {
				bits[j] = bits[j-1]
			} else {
				bits[j] = rng.Intn(2) == 1
			}
		}
		unstuffed, err := Unstuff(Stuff(bits))
		if err != nil {
			t.Fatal(err)
		}
		if len(unstuffed) != len(bits) {
			t.Fatalf("length %d -> %d", len(bits), len(unstuffed))
		}
		for j := range bits {
			if unstuffed[j] != bits[j] {
				t.Fatalf("bit %d mismatch", j)
			}
		}
	}
}

func TestStuffedStreamNeverHasSixEqualBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		bits := make([]bool, 100)
		for j := range bits {
			bits[j] = rng.Float64() < 0.8 // long runs likely
		}
		stuffed := Stuff(bits)
		run := 1
		for j := 1; j < len(stuffed); j++ {
			if stuffed[j] == stuffed[j-1] {
				run++
				if run >= 6 {
					t.Fatal("six equal bits in stuffed stream")
				}
			} else {
				run = 1
			}
		}
	}
}

func TestUnstuffDetectsViolation(t *testing.T) {
	bits := []bool{false, false, false, false, false, false} // illegal on the wire
	if _, err := Unstuff(bits); err != ErrBadStuffing {
		t.Fatalf("err = %v, want ErrBadStuffing", err)
	}
}

func TestCRCDetectsSingleBitErrors(t *testing.T) {
	f := Frame{ID: 0x123, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}
	bits, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip every bit position in the stuffed body (skip trailer: last
	// 10 bits are delimiter/ack/EOF which are not CRC-protected).
	detected := 0
	total := 0
	for i := 0; i < len(bits)-10; i++ {
		corrupted := FlipBit(bits, i)
		got, _, err := Decode(corrupted)
		total++
		if err != nil {
			detected++
			continue
		}
		// An undetected flip must at least not silently corrupt: if it
		// decodes, it must differ somewhere else (CRC collision would be
		// a real CAN limitation, but single-bit errors are always
		// caught by CRC-15 when framing survives).
		if got.ID == f.ID && bytes.Equal(got.Data, f.Data) {
			t.Fatalf("bit %d flip produced identical frame without error", i)
		}
	}
	if detected < total*9/10 {
		t.Fatalf("only %d/%d single-bit errors detected", detected, total)
	}
}

func TestDecodeShortStream(t *testing.T) {
	if _, _, err := Decode(make([]bool, 10)); err != ErrFrameTooShort {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeBadSOF(t *testing.T) {
	bits := make([]bool, 50)
	for i := range bits {
		bits[i] = true
	}
	if _, _, err := Decode(bits); err != ErrBadSOF {
		t.Fatalf("err = %v", err)
	}
}

func TestCRC15KnownProperties(t *testing.T) {
	// CRC of the empty sequence is 0.
	if got := CRC15(nil); got != 0 {
		t.Fatalf("CRC15(nil) = %#x", got)
	}
	// CRC is 15 bits.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		bits := make([]bool, rng.Intn(200))
		for j := range bits {
			bits[j] = rng.Intn(2) == 1
		}
		if CRC15(bits) > 0x7FFF {
			t.Fatal("CRC exceeds 15 bits")
		}
	}
	// Appending a message's own CRC yields zero remainder — the
	// defining property of a CRC.
	msg := []bool{true, false, true, true, false, false, true}
	crc := CRC15(msg)
	full := append(append([]bool{}, msg...), crcBits(crc)...)
	if got := CRC15(full); got != 0 {
		t.Fatalf("self-check CRC = %#x, want 0", got)
	}
}

func crcBits(crc uint16) []bool {
	out := make([]bool, 15)
	for i := 0; i < 15; i++ {
		out[i] = crc>>(14-uint(i))&1 == 1
	}
	return out
}

func TestBackToBackFrames(t *testing.T) {
	f1 := Frame{ID: 0x100, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	f2 := Frame{ID: 0x101, Data: []byte{9, 10}}
	b1, _ := f1.Encode()
	b2, _ := f2.Encode()
	stream := append(append([]bool{}, b1...), b2...)
	got1, n1, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := Decode(stream[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if got1.ID != f1.ID || got2.ID != f2.ID {
		t.Fatalf("back-to-back IDs %#x %#x", got1.ID, got2.ID)
	}
	if !bytes.Equal(got2.Data, f2.Data) {
		t.Fatal("second frame data corrupted")
	}
}

// Property via testing/quick: any (id, data) within limits round-trips.
func TestRoundTripQuick(t *testing.T) {
	f := func(id uint16, data []byte) bool {
		fr := Frame{ID: id & 0x7FF, Data: data}
		if len(fr.Data) > 8 {
			fr.Data = fr.Data[:8]
		}
		bits, err := fr.Encode()
		if err != nil {
			return false
		}
		got, _, err := Decode(bits)
		return err == nil && got.ID == fr.ID && bytes.Equal(got.Data, fr.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	f := Frame{ID: 0x100, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	f := Frame{ID: 0x100, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	bits, _ := f.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(bits); err != nil {
			b.Fatal(err)
		}
	}
}
