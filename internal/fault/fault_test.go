package fault

import (
	"bytes"
	"testing"

	"boresight/internal/link"
	"boresight/internal/serial"
)

func samplePacket(seq byte) []byte {
	return link.BridgeEncode(link.EncodeDMUAccels(seq, [3]float64{0.1, -9.8, 0.2}))
}

func TestTransparentChannelPassesThrough(t *testing.T) {
	c := NewChannel(Profile{}, 1)
	for i := 0; i < 50; i++ {
		in := samplePacket(byte(i))
		out := c.Transmit(in)
		if !bytes.Equal(in, out) {
			t.Fatalf("sample %d: % x -> % x", i, in, out)
		}
	}
	if s := c.Stats(); s != (Stats{Bytes: 50 * len(samplePacket(0))}) {
		t.Fatalf("transparent channel recorded faults: %+v", s)
	}
}

func TestChannelIsDeterministic(t *testing.T) {
	prof := Profile{
		BER: 2e-3, DropProb: 0.01, DupProb: 0.01,
		BurstProb: 0.005, LineBreakProb: 0.002, JitterProb: 0.1,
	}
	a := NewChannel(prof, 42)
	b := NewChannel(prof, 42)
	for i := 0; i < 500; i++ {
		in := samplePacket(byte(i))
		oa := append([]byte(nil), a.Transmit(in)...)
		ob := append([]byte(nil), b.Transmit(in)...)
		if !bytes.Equal(oa, ob) {
			t.Fatalf("sample %d: replay diverged", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("replay stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	// A different seed draws a different fault sequence.
	c := NewChannel(prof, 43)
	diverged := false
	a2 := NewChannel(prof, 42)
	for i := 0; i < 500 && !diverged; i++ {
		in := samplePacket(byte(i))
		diverged = !bytes.Equal(
			append([]byte(nil), a2.Transmit(in)...), c.Transmit(in))
	}
	if !diverged {
		t.Fatal("different seeds replayed the same fault sequence")
	}
	// Reset replays too: channel c, used under another seed and then
	// left mid-burst, mid-break, with the receiver inside a byte and
	// jittered bytes pending, must match a fresh channel after Reset.
	c.burstLeft, c.breakLeft = 3, 2
	c.dec.Push(false) // a start bit
	c.carry = append(c.carry, 0xAA)
	c.Reset(prof, 42)
	fresh := NewChannel(prof, 42)
	for i := 0; i < 500; i++ {
		in := samplePacket(byte(i))
		if !bytes.Equal(append([]byte(nil), c.Transmit(in)...), fresh.Transmit(in)) {
			t.Fatalf("sample %d: reset channel diverged from a fresh one", i)
		}
	}
	if c.Stats() != fresh.Stats() {
		t.Fatalf("reset stats diverged: %+v vs %+v", c.Stats(), fresh.Stats())
	}
}

func TestBERCorruptsThroughFramingPath(t *testing.T) {
	// At a heavy BER, bit flips must surface as framing errors (stop
	// or start bits) and as corrupted bytes the packet checksum
	// rejects — and the parser must keep recovering clean packets.
	c := NewChannel(Profile{BER: 5e-3}, 7)
	var p link.BridgeParser
	goodIn, goodOut := 0, 0
	for i := 0; i < 2000; i++ {
		in := samplePacket(byte(i))
		goodIn++
		for _, b := range c.Transmit(in) {
			if f, ok := p.Push(b); ok {
				if v, err := link.DecodeDMUFrame(f); err == nil {
					if _, isAcc := v.(*link.DMUAccels); isAcc {
						goodOut++
					}
				}
			}
		}
	}
	st := c.Stats()
	if st.BitErrors == 0 {
		t.Fatal("no bit errors at BER 5e-3")
	}
	if st.FramingErrors == 0 {
		t.Fatal("no framing errors: flips are not running through the 8N1 path")
	}
	if goodOut == 0 {
		t.Fatal("no packets survived")
	}
	if goodOut >= goodIn {
		t.Fatalf("all %d packets survived BER 5e-3", goodIn)
	}
	// ~140 line bits/packet at BER 5e-3: half or more should die.
	if goodOut > goodIn*3/4 {
		t.Fatalf("only %d of %d packets lost — BER too gentle", goodIn-goodOut, goodIn)
	}
}

func TestDropAndDuplicate(t *testing.T) {
	c := NewChannel(Profile{DropProb: 0.05, DupProb: 0.05}, 3)
	in, out := 0, 0
	for i := 0; i < 200; i++ {
		p := samplePacket(byte(i))
		in += len(p)
		out += len(c.Transmit(p))
	}
	st := c.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("stats %+v: drop/dup never fired", st)
	}
	if out != in-st.Dropped+st.Duplicated {
		t.Fatalf("byte conservation: in %d, out %d, dropped %d, dup %d",
			in, out, st.Dropped, st.Duplicated)
	}
}

func TestLineBreakRaisesFramingErrorAndRecovers(t *testing.T) {
	c := NewChannel(Profile{LineBreakProb: 0.01}, 5)
	var p link.BridgeParser
	recovered := 0
	for i := 0; i < 500; i++ {
		for _, b := range c.Transmit(samplePacket(byte(i))) {
			if _, ok := p.Push(b); ok {
				recovered++
			}
		}
	}
	st := c.Stats()
	if st.LineBreaks == 0 {
		t.Fatal("no line breaks fired")
	}
	if st.FramingErrors < st.LineBreaks {
		t.Fatalf("%d breaks but %d framing errors", st.LineBreaks, st.FramingErrors)
	}
	if recovered == 0 {
		t.Fatal("parser never recovered after line breaks")
	}
	if recovered >= 500 {
		t.Fatal("breaks lost no packets")
	}
}

func TestJitterDefersButConservesBytes(t *testing.T) {
	c := NewChannel(Profile{JitterProb: 0.5}, 9)
	var sent, got []byte
	for i := 0; i < 300; i++ {
		in := samplePacket(byte(i))
		sent = append(sent, in...)
		got = append(got, c.Transmit(in)...)
	}
	got = append(got, c.Transmit(nil)...) // flush the final carry
	if c.Stats().Deferred == 0 {
		t.Fatal("jitter never deferred a byte")
	}
	if !bytes.Equal(sent, got) {
		t.Fatalf("jitter reordered or lost bytes: %d sent, %d received", len(sent), len(got))
	}
}

func TestChannelComposesOntoSerialPort(t *testing.T) {
	// The documented composition: fault the bytes, then give them
	// baud-rate timing through a Port. The port clock is monotonic, so
	// a careless caller cannot re-time the faulted stream.
	c := NewChannel(Profile{DropProb: 0.2}, 11)
	port := serial.NewPort(serial.Baud57600)
	var rx []byte
	now := 0.0
	for i := 0; i < 100; i++ {
		port.Send(c.Transmit(samplePacket(byte(i))))
		now += 0.01
		rx = append(rx, port.Advance(now)...)
	}
	rx = append(rx, port.Advance(now+1)...)
	want := 100*len(samplePacket(0)) - c.Stats().Dropped
	if len(rx) != want {
		t.Fatalf("port delivered %d bytes, want %d", len(rx), want)
	}
}

func TestSupervisorClassification(t *testing.T) {
	s := NewSupervisor(3)
	// No packet has ever arrived: immediately stale, never held.
	if st := s.Observe(false); st != Stale {
		t.Fatalf("first miss = %v, want stale", st)
	}
	if st := s.Observe(true); st != Fresh {
		t.Fatalf("good packet = %v", st)
	}
	// Misses within the hold window are held, beyond it stale.
	for i := 1; i <= 3; i++ {
		if st := s.Observe(false); st != Held {
			t.Fatalf("miss %d = %v, want held", i, st)
		}
		if s.MissRun() != i {
			t.Fatalf("miss run = %d, want %d", s.MissRun(), i)
		}
	}
	if st := s.Observe(false); st != Stale {
		t.Fatal("fourth miss not stale")
	}
	// A fresh packet resets the watchdog.
	if st := s.Observe(true); st != Fresh || s.MissRun() != 0 {
		t.Fatal("fresh packet did not reset the miss run")
	}
	good, held, stale, longest := s.Health()
	if good != 2 || held != 3 || stale != 2 || longest != 4 {
		t.Fatalf("health = %d/%d/%d/%d", good, held, stale, longest)
	}
}

func TestSupervisorDefaultThreshold(t *testing.T) {
	s := NewSupervisor(0)
	s.Observe(true)
	for i := 0; i < 5; i++ {
		if st := s.Observe(false); st != Held {
			t.Fatalf("miss %d = %v under default threshold", i+1, st)
		}
	}
	if st := s.Observe(false); st != Stale {
		t.Fatal("default threshold did not expire")
	}
}

func TestProfileEnabled(t *testing.T) {
	if (Profile{}).Enabled() {
		t.Fatal("zero profile enabled")
	}
	if (Profile{Seed: 5, StaleAfter: 9}).Enabled() {
		t.Fatal("seed/threshold alone must not enable the channel")
	}
	for _, p := range []Profile{
		{BER: 1e-6}, {DropProb: 0.1}, {DupProb: 0.1},
		{BurstProb: 0.1}, {LineBreakProb: 0.1}, {JitterProb: 0.1},
	} {
		if !p.Enabled() {
			t.Fatalf("profile %+v not enabled", p)
		}
	}
}

// TestChannelSteadyStateAllocFree pins the hot-path property the
// fault-injected link benchmarks depend on: after warm-up, Transmit
// performs zero heap allocations per sample.
func TestChannelSteadyStateAllocFree(t *testing.T) {
	prof := Profile{BER: 1e-3, DropProb: 0.01, DupProb: 0.01,
		BurstProb: 0.005, LineBreakProb: 0.002, JitterProb: 0.2}
	c := NewChannel(prof, 17)
	pkt := samplePacket(1)
	for i := 0; i < 100; i++ { // warm the reused buffers
		c.Transmit(pkt)
	}
	if n := testing.AllocsPerRun(200, func() { c.Transmit(pkt) }); n > 0 {
		t.Fatalf("Transmit allocates %.1f per sample in steady state", n)
	}
}

func BenchmarkFaultChannelDecode(b *testing.B) {
	// A fault-injected bridge decode: the steady-state per-sample cost
	// of the channel model plus the packet parser, allocation-free.
	c := NewChannel(Profile{BER: 1e-3, LineBreakProb: 1e-3}, 1)
	var p link.BridgeParser
	pkt := samplePacket(1)
	for i := 0; i < 100; i++ {
		for _, x := range c.Transmit(pkt) {
			p.Push(x)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range c.Transmit(pkt) {
			p.Push(x)
		}
	}
}

func BenchmarkFaultChannelClean(b *testing.B) {
	// The no-fault baseline: what the channel costs when the profile
	// is enabled but no event fires on this packet.
	c := NewChannel(Profile{BER: 1e-9}, 1)
	pkt := samplePacket(1)
	c.Transmit(pkt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transmit(pkt)
	}
}
