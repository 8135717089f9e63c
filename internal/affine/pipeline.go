package affine

import (
	"math"

	"boresight/internal/fixed"
	"boresight/internal/hcsim"
	"boresight/internal/rc200"
	"boresight/internal/video"
)

// Pipeline is the paper's Figure 5 RotateCoordinates datapath hosted on
// the hcsim clock: a five-stage pipeline that, once loaded, produces one
// output pixel per clock cycle. It raster-scans the output frame,
// inverse-maps each coordinate through the fixed-point rotation, reads
// the source pixel from a ZBT SRAM framebuffer (1-cycle latency) and
// pushes it to the display sink.
//
// The address generator is *stepped*: because the inverse map is
// affine, each rotation product advances by a constant per pixel, so S1
// updates four extended-precision accumulators with adds (two per
// pixel, four at a row wrap) instead of multiplying per pixel — the
// real-FPGA arrangement that frees the DSP blocks for the correlator.
// S2 renormalises the accumulators (fixed.RoundShift64, the identical
// rounding to the four fixed.Muls it replaces), keeping the frame
// bit-identical to the per-pixel RotateCoord datapath.
//
// Stages (one clock each):
//
//	S0  raster coordinate generation; frame-atomic control latch
//	S1  stepping accumulators advance (delta adds)           (steps 1–2)
//	S2  renormalisation shifts (was: four multiplies)        (step 3)
//	S3  sums, fixed→int, centre restore; SRAM read issued    (steps 4–5)
//	S4  SRAM data returns; pixel pushed to the display
//
// The control inputs (LUT index and pixel translation) mirror the
// twelve memory-mapped registers the Sabre writes into the
// SabreControlRun peripheral. The whole control word — rotation *and*
// translation — is latched into frame registers when pixel 0 issues:
// the stepping accumulators are seeded from the rotation at that
// moment, and tx/ty ride the stage registers beside the products, so a
// mid-frame SetControl cannot tear a frame (it takes effect at the
// next Start). The previous per-stage reads skewed tx/ty (read at S3)
// against thetaIdx (read at S1) by two pixels on a mid-frame write.
type Pipeline struct {
	lut  *fixed.Trig
	src  *rc200.SRAM
	dst  *rc200.Display
	w, h int

	// Control registers (written by the processor side).
	thetaIdx *hcsim.Reg[int]
	tx, ty   *hcsim.Reg[int]

	// st is the datapath's register bank: Eval reads it in place
	// through Cur and writes it in place through D, so the bank's
	// latch is the only copy of stage state per cycle.
	st *hcsim.Reg[pipeState]

	framesDone uint64
	blackOut   uint64 // pixels whose source fell outside the frame
}

// pipeState is every register of the datapath, one bank on the clock.
// A stage whose valid bit is clear holds stale data, which nothing
// reads.
type pipeState struct {
	// S0: raster position of the next coordinate to issue.
	pos     int
	running bool

	// Frame-latched control and the stepping accumulators.
	frame frameCtl
	acc   stepAcc

	s1 s1Regs
	s2 s2Regs
	s3 s3Regs
}

// frameCtl is the control word latched once per frame at pixel 0: the
// LUT outputs for the frame's rotation, the translation, and the
// row-start products the x accumulators reload at each row wrap.
type frameCtl struct {
	sin, cos     int32
	tx, ty       int
	rowP3, rowP4 int64 // (0−cx)·cos, (0−cx)·sin
}

// stepAcc holds the four extended-precision rotation products for the
// next raster position:
//
//	p3 = (x−cx)·cos   p4 = (x−cx)·sin
//	q2 = (y−cy)·(−sin)   q5 = (y−cy)·cos
//
// carried exactly in int64 so the per-pixel adds are exact and the S2
// renormalisation reproduces the reference multiplies bit for bit.
type stepAcc struct {
	p3, p4, q2, q5 int64
}

type s1Regs struct {
	valid          bool
	x, y           int
	p2, p3, p4, p5 int64 // extended products for this pixel
	tx, ty         int   // frame-latched translation, riding along
}

type s2Regs struct {
	valid          bool
	x, y           int
	t2, t3, t4, t5 int32
	tx, ty         int
}

type s3Regs struct {
	valid   bool
	x, y    int
	inRange bool
}

// NewPipeline builds and registers the pipeline with the simulator.
func NewPipeline(sim *hcsim.Sim, lut *fixed.Trig, src *rc200.SRAM, dst *rc200.Display, w, h int) *Pipeline {
	p := &Pipeline{
		lut: lut, src: src, dst: dst, w: w, h: h,
		thetaIdx: hcsim.NewReg(sim, 0),
		tx:       hcsim.NewReg(sim, 0),
		ty:       hcsim.NewReg(sim, 0),
		st:       hcsim.NewReg(sim, pipeState{}),
	}
	sim.Add(p)
	return p
}

// SetSource switches the SRAM bank the pipeline reads — the
// double-buffer swap. Only safe between frames (when Busy is false).
func (p *Pipeline) SetSource(src *rc200.SRAM) { p.src = src }

// SetControl loads the inverse-mapping control registers: the LUT index
// of the rotation and the whole-pixel translation applied to the source
// coordinate. Takes effect at the next clock edge, like a bus write.
func (p *Pipeline) SetControl(thetaIdx, tx, ty int) {
	p.thetaIdx.SetD(thetaIdx)
	p.tx.SetD(tx)
	p.ty.SetD(ty)
}

// ControlFromParams converts forward correction parameters to the
// pipeline's inverse-mapping control values.
func ControlFromParams(lut *fixed.Trig, prm Params) (thetaIdx, tx, ty int) {
	inv := prm.Invert()
	return lut.Index(inv.Theta), int(math.Round(inv.TX)), int(math.Round(inv.TY))
}

// Start begins one frame (takes effect at the next clock edge).
func (p *Pipeline) Start() {
	st := p.st.D()
	st.pos = 0
	st.running = true
}

// Busy reports whether a frame is still flowing through the pipeline.
func (p *Pipeline) Busy() bool {
	st := p.st.Cur()
	return st.running || st.s1.valid || st.s2.valid || st.s3.valid
}

// FramesDone returns the number of completed output frames.
func (p *Pipeline) FramesDone() uint64 { return p.framesDone }

// BlackPixels returns how many output pixels had out-of-range sources.
func (p *Pipeline) BlackPixels() uint64 { return p.blackOut }

// Eval advances every stage one clock. It reads only the latched bank
// (cur) and writes only the next-state bank (nxt); the two never
// alias, so each stage writes its successor's registers field by
// field with no temporaries.
func (p *Pipeline) Eval() {
	cx, cy := p.w/2, p.h/2
	cur, nxt := p.st.Cur(), p.st.D()

	// S4: the SRAM data addressed by S3 last cycle is valid now.
	if s3 := &cur.s3; s3.valid {
		var pix video.Pixel
		if s3.inRange {
			pix = video.Pixel(p.src.Data())
		} else {
			p.blackOut++
		}
		p.dst.Push(s3.x, s3.y, pix)
		if s3.y == p.h-1 && s3.x == p.w-1 {
			p.framesDone++
		}
	}

	// S3: sums, fixed→int, centre restore; issue the SRAM read. The
	// translation comes from the stage registers (latched with the
	// rotation at frame start), not from a live control read.
	if s2 := &cur.s2; s2.valid {
		sx := fixed.ToInt(fixed.AddSat(s2.t2, s2.t3), fixed.CoordFrac) + cx + s2.tx
		sy := fixed.ToInt(fixed.AddSat(s2.t4, s2.t5), fixed.CoordFrac) + cy + s2.ty
		inRange := sx >= 0 && sx < p.w && sy >= 0 && sy < p.h
		if inRange {
			p.src.RequestRead(sy*p.w + sx)
		}
		n := &nxt.s3
		n.valid, n.x, n.y, n.inRange = true, s2.x, s2.y, inRange
	} else {
		nxt.s3.valid = false
	}

	// S2: renormalise the stepped products — the same rounding the four
	// multiplies applied, so the coordinates are unchanged bit for bit.
	if s1 := &cur.s1; s1.valid {
		n := &nxt.s2
		n.valid, n.x, n.y = true, s1.x, s1.y
		n.t2 = fixed.RoundShift64(s1.p2, fixed.StepShift)
		n.t3 = fixed.RoundShift64(s1.p3, fixed.StepShift)
		n.t4 = fixed.RoundShift64(s1.p4, fixed.StepShift)
		n.t5 = fixed.RoundShift64(s1.p5, fixed.StepShift)
		n.tx, n.ty = s1.tx, s1.ty
	} else {
		nxt.s2.valid = false
	}

	// S0+S1: raster generation and the stepping address generator. At
	// pixel 0 the control word is latched frame-atomically and the
	// accumulators are seeded from it; afterwards they advance by adds
	// only (two per pixel, reload + two at a row wrap).
	if !cur.running {
		nxt.s1.valid = false
		return
	}
	pos := cur.pos
	x, y := pos%p.w, pos/p.w
	fc, a := &cur.frame, &cur.acc
	if pos == 0 {
		idx := p.thetaIdx.Q()
		sin, cos := p.lut.SinIdx(idx), p.lut.CosIdx(idx)
		nxt.frame = frameCtl{
			sin: sin, cos: cos,
			tx: p.tx.Q(), ty: p.ty.Q(),
			rowP3: int64(-cx) * int64(cos),
			rowP4: int64(-cx) * int64(sin),
		}
		nxt.acc = stepAcc{
			p3: nxt.frame.rowP3,
			p4: nxt.frame.rowP4,
			q2: int64(-cy) * int64(-sin),
			q5: int64(-cy) * int64(cos),
		}
		fc, a = &nxt.frame, &nxt.acc
	}
	n := &nxt.s1
	n.valid, n.x, n.y = true, x, y
	n.p2, n.p3, n.p4, n.p5 = a.q2, a.p3, a.p4, a.q5
	n.tx, n.ty = fc.tx, fc.ty
	// a may be nxt.acc itself (at pixel 0): every field is read before
	// it is overwritten.
	na := &nxt.acc
	if x+1 == p.w {
		na.q2 = a.q2 - int64(fc.sin)
		na.q5 = a.q5 + int64(fc.cos)
		na.p3, na.p4 = fc.rowP3, fc.rowP4
	} else {
		na.q2, na.q5 = a.q2, a.q5
		na.p3 = a.p3 + int64(fc.cos)
		na.p4 = a.p4 + int64(fc.sin)
	}
	if pos+1 >= p.w*p.h {
		nxt.running = false
		nxt.pos = 0
	} else {
		nxt.pos = pos + 1
	}
}
