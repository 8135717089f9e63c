package sabre

import (
	"fmt"
	"math"
)

// The fixed-point counterpart of the SoftFloat Kalman program: the same
// scalar filter in Q16.16 integer arithmetic — the paper's proposed
// "conversion of the Sensor Fusion Algorithm from float to fixed-point"
// (Section 12), measured on the same core so the speedup is directly
// comparable.
//
// Arithmetic helpers are inlined in the program:
//
//   - Q16.16 multiply: 32×32→64-bit product via mul+mulhu, then >>16.
//   - Fractional divide K = (P<<16)/(P+R) with K < 1: a 16-step
//     restoring division (the core has no divider).

// fxKalman memory map (Q16.16 values).
const (
	fxkN    = 0x00
	fxkQ    = 0x04
	fxkR    = 0x08
	fxkP    = 0x0C
	fxkX    = 0x10
	fxkZIn  = 0x100
	fxkXOut = 0x8000
)

const fxKalmanMain = `
	li sp, 0xFF00
	lw s0, 0(zero)          ; N
	li s1, 0x100            ; z pointer
	li s2, 0x8000           ; out pointer
	lw fp, 16(zero)         ; x (Q16.16)
fxk_loop:
	beqz s0, fxk_done
	; ---- K = (P << 16) / (P + R), K in Q16 fraction (K < 1) ----
	lw t0, 12(zero)         ; P
	lw t1, 8(zero)          ; R
	add t1, t1, t0          ; denom = P + R
	; 16-step restoring division of (P · 2^16) by denom.
	mv t2, t0               ; remainder
	li t3, 0                ; quotient (K)
	li t4, 16
fxk_div:
	srli a0, t2, 31         ; carry out of rem<<1
	slli t2, t2, 1
	slli t3, t3, 1
	bnez a0, fxk_sub
	bltu t2, t1, fxk_next
fxk_sub:
	sub t2, t2, t1
	ori t3, t3, 1
fxk_next:
	addi t4, t4, -1
	bnez t4, fxk_div
	; ---- x += (K * (z - x)) >> 16  (Q16 gain × Q16.16 value) ----
	lw a0, 0(s1)
	sub a0, a0, fp          ; diff (signed Q16.16)
	; signed 32×32→64 of diff × K: K is 16-bit positive, so
	; product = mul/mulhu with sign fix for negative diff.
	mul a1, a0, t3          ; low
	mulhu a2, a0, t3        ; high (unsigned)
	bge a0, zero, fxk_nofix
	sub a2, a2, t3          ; correct high word for signed diff
fxk_nofix:
	srli a1, a1, 16
	slli a2, a2, 16
	or a1, a1, a2           ; (diff*K) >> 16
	add fp, fp, a1
	; ---- P = ((one - K) * P) >> 16 + Q ----
	li a0, 0x10000
	sub a0, a0, t3          ; one - K (Q16, positive)
	lw a1, 12(zero)         ; P
	mul a2, a1, a0          ; low (P positive, fits semantics)
	mulhu a3, a1, a0        ; high
	srli a2, a2, 16
	slli a3, a3, 16
	or a2, a2, a3
	lw a1, 4(zero)          ; Q
	add a2, a2, a1
	sw a2, 12(zero)
	sw fp, 0(s2)
	addi s1, s1, 4
	addi s2, s2, 4
	addi s0, s0, -1
	j fxk_loop
fxk_done:
	halt
`

// FxKalmanResult reports a fixed-point Kalman run on the core.
type FxKalmanResult struct {
	Estimates       []float64 // decoded Q16.16 per-step estimates
	RawEstimates    []int32   // the exact on-core words
	FinalP          float64
	CyclesPerUpdate float64
	TotalCycles     uint64
}

// q16 converts a float to Q16.16.
func q16(f float64) int32 { return int32(math.Round(f * 65536)) }

// RunFxKalman executes the Q16.16 scalar Kalman program on the core.
// All parameters are floats for convenience and quantised at the
// boundary.
func RunFxKalman(q, r, p0, x0 float64, z []float64) (*FxKalmanResult, error) {
	if len(z) > (fxkXOut-fxkZIn)/4 {
		return nil, fmt.Errorf("sabre: %d measurements exceed the data store", len(z))
	}
	prog, err := Assemble(fxKalmanMain)
	if err != nil {
		return nil, err
	}
	c := New()
	if err := c.LoadProgram(prog.Words); err != nil {
		return nil, err
	}
	storeFxKalmanInputs(c, q, r, p0, x0, z)
	if _, err := c.Run(fxKalmanBudget(len(z))); err != nil {
		return nil, fmt.Errorf("sabre: fx kalman program: %w", err)
	}
	res := &FxKalmanResult{
		Estimates:    make([]float64, len(z)),
		RawEstimates: make([]int32, len(z)),
		FinalP:       float64(int32(c.LoadWord(fxkP))) / 65536,
		TotalCycles:  c.Cycles,
	}
	for i := range z {
		raw := int32(c.LoadWord(uint32(fxkXOut + 4*i)))
		res.RawEstimates[i] = raw
		res.Estimates[i] = float64(raw) / 65536
	}
	if len(z) > 0 {
		res.CyclesPerUpdate = float64(c.Cycles) / float64(len(z))
	}
	return res, nil
}

// storeFxKalmanInputs quantises the filter's parameters and the
// measurements z into the Q16.16 program's data store.
func storeFxKalmanInputs(c *CPU, q, r, p0, x0 float64, z []float64) {
	c.StoreWord(fxkN, uint32(len(z)))
	c.StoreWord(fxkQ, uint32(q16(q)))
	c.StoreWord(fxkR, uint32(q16(r)))
	c.StoreWord(fxkP, uint32(q16(p0)))
	c.StoreWord(fxkX, uint32(q16(x0)))
	for i, v := range z {
		c.StoreWord(uint32(fxkZIn+4*i), uint32(q16(v)))
	}
}

// fxKalmanBudget is the cycle budget RunFxKalman gives n updates.
func fxKalmanBudget(n int) uint64 { return uint64(n)*2000 + 1000 }

// FxKalmanHost runs the identical Q16.16 arithmetic on the host — used
// to verify the on-core program bit for bit.
func FxKalmanHost(q, r, p0, x0 float64, z []float64) (estimates []int32, finalP int32) {
	qq, rq, pq, xq := q16(q), q16(r), q16(p0), q16(x0)
	estimates = make([]int32, len(z))
	for i, v := range z {
		zq := q16(v)
		denom := uint32(pq + rq)
		// 16-step restoring division of pq<<16 by denom.
		rem := uint32(pq)
		k := uint32(0)
		for it := 0; it < 16; it++ {
			carry := rem >> 31
			rem <<= 1
			k <<= 1
			if carry != 0 || rem >= denom {
				rem -= denom
				k |= 1
			}
		}
		diff := int64(zq - xq)
		xq += int32((diff * int64(k)) >> 16)
		oneMinusK := int64(0x10000 - k)
		pq = int32((int64(pq)*oneMinusK)>>16) + qq
		estimates[i] = xq
	}
	return estimates, pq
}
