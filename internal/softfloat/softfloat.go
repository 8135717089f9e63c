// Package softfloat emulates IEEE-754 binary32 arithmetic using only
// integer operations, following the algorithms of the Berkeley
// SoftFloat library that the paper runs on its FPU-less Sabre soft core
// (Section 10).
//
// Every routine is written against integer registers and shifts exactly
// the way the soft-core library computes them, so host-side results match
// the emulated processor bit for bit, and both match native IEEE
// hardware in round-to-nearest-even. The package carries rounding mode
// and accumulated exception flags in a Context, mirroring the global
// state of the C library.
package softfloat

// F32 is the raw bit pattern of an IEEE-754 binary32 value.
type F32 uint32

// RoundingMode selects the IEEE-754 rounding direction.
type RoundingMode uint8

// Rounding modes (IEEE-754 §4.3).
const (
	RoundNearestEven RoundingMode = iota // to nearest, ties to even (default)
	RoundToZero                          // toward zero (truncate)
	RoundDown                            // toward −∞
	RoundUp                              // toward +∞
)

// Flags records the IEEE-754 exception flags raised by operations.
type Flags uint8

// Exception flags; multiple may be set by one operation.
const (
	FlagInexact Flags = 1 << iota
	FlagUnderflow
	FlagOverflow
	FlagDivByZero
	FlagInvalid
)

// Context carries the rounding mode and sticky exception flags for a
// sequence of operations. The zero value rounds to nearest-even with no
// flags raised, matching the IEEE default environment.
type Context struct {
	Rounding RoundingMode
	Flags    Flags
}

// ClearFlags resets the accumulated exception flags.
func (c *Context) ClearFlags() { c.Flags = 0 }

// defaultNaN32 is the default quiet NaN (sign bit clear, MSB of the
// fraction set), matching the pattern Go's runtime produces for 0/0 style
// operations.
const defaultNaN32 F32 = 0x7FC00000

// shift32RightJamming shifts a right by count bits; any bits shifted out
// are OR-reduced ("jammed") into the least significant bit so that
// rounding decisions see them as a sticky bit.
func shift32RightJamming(a uint32, count int) uint32 {
	switch {
	case count == 0:
		return a
	case count < 32:
		z := a >> uint(count)
		if a<<uint(32-count) != 0 {
			z |= 1
		}
		return z
	default:
		if a != 0 {
			return 1
		}
		return 0
	}
}

// shift64RightJamming is the 64-bit version of shift32RightJamming.
func shift64RightJamming(a uint64, count int) uint64 {
	switch {
	case count == 0:
		return a
	case count < 64:
		z := a >> uint(count)
		if a<<uint(64-count) != 0 {
			z |= 1
		}
		return z
	default:
		if a != 0 {
			return 1
		}
		return 0
	}
}

// isqrt64 returns floor(sqrt(a)) computed bit by bit (restoring method),
// using only integer operations.
func isqrt64(a uint64) uint64 {
	var root, rem uint64
	// Process two input bits per iteration, from the top.
	for shift := 62; shift >= 0; shift -= 2 {
		rem = rem<<2 | (a>>uint(shift))&3
		root <<= 1
		trial := root<<1 | 1
		if rem >= trial {
			rem -= trial
			root |= 1
		}
	}
	return root
}
