package link

// The ACC reaches the board over its own RS232 link (Figure 2): a small
// microcontroller on the sensor head measures the ADXL202's PWM outputs
// with a counter and streams the raw counts:
//
//	0xC5 | t1x_hi t1x_lo | t1y_hi t1y_lo | t2_hi t2_lo | checksum
//
// t1x/t1y are the high-time counts of the two axes and t2 the common
// period count; acceleration is recovered host-side with the duty-cycle
// codec (package imu). Checksum as in the bridge format.

// ACCSync is the ACC packet header byte.
const ACCSync = 0xC5

// ACCPacket carries one pair of raw duty-cycle measurements.
type ACCPacket struct {
	T1X, T1Y uint16 // high-time counts per axis
	T2       uint16 // period count
}

// EncodeACC serialises one ACC measurement packet.
func EncodeACC(p ACCPacket) []byte { return AppendACC(make([]byte, 0, 8), p) }

// AppendACC appends the serialised packet (see EncodeACC) to dst.
func AppendACC(dst []byte, p ACCPacket) []byte {
	start := len(dst)
	dst = append(dst,
		ACCSync,
		byte(p.T1X>>8), byte(p.T1X),
		byte(p.T1Y>>8), byte(p.T1Y),
		byte(p.T2>>8), byte(p.T2),
	)
	var sum byte
	for _, b := range dst[start+1:] {
		sum += b
	}
	return append(dst, byte(-sum))
}

// ACCParser reassembles ACC packets from the serial byte stream.
type ACCParser struct {
	buf     []byte
	packets int
	badSum  int
	resyncs int
}

// Reset discards buffered bytes and zeroes the health counters while
// keeping the reassembly buffer's backing array (see
// BridgeParser.Reset).
func (p *ACCParser) Reset() {
	p.buf = p.buf[:0]
	p.packets, p.badSum, p.resyncs = 0, 0, 0
}

// drop discards the first k buffered bytes, compacting in place so the
// backing array never migrates (the parser allocates nothing in steady
// state).
func (p *ACCParser) drop(k int) {
	n := copy(p.buf, p.buf[k:])
	p.buf = p.buf[:n]
}

// Push consumes one byte; returns a completed packet and true when one
// is assembled and checksum-valid.
func (p *ACCParser) Push(b byte) (ACCPacket, bool) {
	p.buf = append(p.buf, b)
	for {
		if len(p.buf) >= 1 && p.buf[0] != ACCSync {
			p.dropToSync()
			continue
		}
		if len(p.buf) < 8 {
			return ACCPacket{}, false
		}
		var sum byte
		for _, x := range p.buf[1:8] {
			sum += x
		}
		if sum != 0 {
			p.badSum++
			p.drop(1)
			p.resyncs++
			continue
		}
		pkt := ACCPacket{
			T1X: uint16(p.buf[1])<<8 | uint16(p.buf[2]),
			T1Y: uint16(p.buf[3])<<8 | uint16(p.buf[4]),
			T2:  uint16(p.buf[5])<<8 | uint16(p.buf[6]),
		}
		p.drop(8)
		p.packets++
		return pkt, true
	}
}

func (p *ACCParser) dropToSync() {
	for i, b := range p.buf {
		if b == ACCSync {
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

// Stats returns parser health counters.
func (p *ACCParser) Stats() (packets, badSum, resyncs int) {
	return p.packets, p.badSum, p.resyncs
}
