// Package video provides the image substrate for the boresight
// correction demo: framebuffers matching the RC200's video path,
// synthetic road scenes standing in for the paper's camera (we have no
// physical video input), alignment/quality metrics, and PPM output for
// inspecting results.
package video

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
)

// Pixel is a 24-bit RGB value packed 0x00RRGGBB, the natural unit of the
// framebuffer (the RC200 stores pixels in 32-bit ZBT words).
type Pixel uint32

// RGB packs components into a Pixel.
func RGB(r, g, b uint8) Pixel {
	return Pixel(uint32(r)<<16 | uint32(g)<<8 | uint32(b))
}

// R returns the red component.
func (p Pixel) R() uint8 { return uint8(p >> 16) }

// G returns the green component.
func (p Pixel) G() uint8 { return uint8(p >> 8) }

// B returns the blue component.
func (p Pixel) B() uint8 { return uint8(p) }

// Frame is a dense framebuffer.
type Frame struct {
	W, H int
	Pix  []Pixel // row-major
}

// NewFrame allocates a black frame.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("video: invalid frame size %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]Pixel, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads return black,
// matching the hardware pipeline's treatment of source coordinates that
// map outside the capture window.
func (f *Frame) At(x, y int) Pixel {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return 0
	}
	return f.Pix[y*f.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (f *Frame) Set(x, y int, p Pixel) {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return
	}
	f.Pix[y*f.W+x] = p
}

// Checksum returns the frame's replay fingerprint: CRC-32 (IEEE) over
// the pixels as big-endian words. The golden tests and the cmd/vidpipe
// -check smoke run pin exact datapath output with it.
func (f *Frame) Checksum() uint32 {
	h := crc32.NewIEEE()
	var buf [4]byte
	for _, p := range f.Pix {
		buf[0] = byte(p >> 24)
		buf[1] = byte(p >> 16)
		buf[2] = byte(p >> 8)
		buf[3] = byte(p)
		h.Write(buf[:])
	}
	return h.Sum32()
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	out := NewFrame(f.W, f.H)
	copy(out.Pix, f.Pix)
	return out
}

// Fill sets every pixel.
func (f *Frame) Fill(p Pixel) {
	for i := range f.Pix {
		f.Pix[i] = p
	}
}

// Equal reports whether two frames are identical.
func (f *Frame) Equal(g *Frame) bool {
	if f.W != g.W || f.H != g.H {
		return false
	}
	for i, p := range f.Pix {
		if g.Pix[i] != p {
			return false
		}
	}
	return true
}

// WritePPM encodes the frame as binary PPM (P6).
func (f *Frame) WritePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", f.W, f.H); err != nil {
		return err
	}
	for _, p := range f.Pix {
		if err := bw.WriteByte(p.R()); err != nil {
			return err
		}
		if err := bw.WriteByte(p.G()); err != nil {
			return err
		}
		if err := bw.WriteByte(p.B()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
