package sabre

import (
	"fmt"
	"time"

	"boresight/internal/fxcore"
	"boresight/internal/geom"
)

// This file carries the paper's Section 12 proposal to its conclusion:
// the complete boresight sensor-fusion filter — not just a scalar
// tracker — running on the Sabre core in pure fixed point, with no
// floating-point library at all. The program is the S8.24 filter of
// package fxcore translated operation for operation into Sabre
// assembly: Q24 state and covariance in 32-bit words, 64-bit
// intermediates synthesised from mul/mulhu, the Q30 innovation domain,
// the adjugate-based 2×2 solve with a restoring 64÷32 divider, and the
// covariance floor. Results are bit-identical to the host fxcore
// filter, which the tests verify step by step.
//
// Memory map (all fixed-point words little-endian):
//
//	0x00  N epochs
//	0x04  qStep  (Q24 process noise per step, precomputed)
//	0x08  rQ30   (measurement variance, Q30)
//	0x0C  x[3]   (state, Q24)
//	0x18  P[9]   (covariance, row-major Q24)
//	0x40+ scratch vectors (hxr, hyr, phx, phy, k0, k1, s, det, f)
//	0x100 inputs: 5 words per epoch (fx fy fz zx zy, Q24)
//	0x8000 outputs: 3 words per epoch (x after the update)

// fxb memory offsets.
const (
	fxbN      = 0x00
	fxbQStep  = 0x04
	fxbR30    = 0x08
	fxbX      = 0x0C
	fxbP      = 0x18
	fxbIn     = 0x100
	fxbOut    = 0x8000
	fxbInStep = 20
)

// fxBoresightMain is the filter program. Subroutine register contract:
// a0–a3 and t0–t4 are scratch; s0–s2 and fp are callee-saved (the main
// loop keeps its pointers there).
const fxBoresightMain = `
	li sp, 0xFF00
	lw s0, 0(zero)          ; N
	li s1, 0x100            ; input pointer
	li s2, 0x8000           ; output pointer
fxb_epoch:
	beqz s0, fxb_done

	; ---- load this epoch's inputs into the scratch slots ----
	lw t0, 0(s1)
	sw t0, 0xA0(zero)       ; fx
	lw t0, 4(s1)
	sw t0, 0xA4(zero)       ; fy
	lw t0, 8(s1)
	sw t0, 0xA8(zero)       ; fz
	lw t0, 12(s1)
	sw t0, 0xAC(zero)       ; zx
	lw t0, 16(s1)
	sw t0, 0xB0(zero)       ; zy

	; ---- predict: P[0][0] P[1][1] P[2][2] += qStep ----
	lw t1, 4(zero)          ; qStep
	lw t0, 0x18(zero)
	add t0, t0, t1
	sw t0, 0x18(zero)
	lw t0, 0x28(zero)
	add t0, t0, t1
	sw t0, 0x28(zero)
	lw t0, 0x38(zero)
	add t0, t0, t1
	sw t0, 0x38(zero)

	; ---- h and innovations ----
	; hx = fx - Mul(theta, fz) + Mul(psi, fy)
	lw a0, 0x10(zero)       ; theta = x[1]
	lw a1, 0xA8(zero)       ; fz
	call fxb_mulq24
	mv t4, a0
	lw a0, 0x14(zero)       ; psi = x[2]
	lw a1, 0xA4(zero)       ; fy
	call fxb_mulq24
	lw t0, 0xA0(zero)       ; fx
	sub t0, t0, t4
	add t0, t0, a0          ; hx
	lw t1, 0xAC(zero)       ; zx
	sub t1, t1, t0
	sw t1, 0x88(zero)       ; nuX
	; hy = fy + Mul(phi, fz) - Mul(psi, fx)
	lw a0, 0x0C(zero)       ; phi = x[0]
	lw a1, 0xA8(zero)
	call fxb_mulq24
	mv t4, a0
	lw a0, 0x14(zero)       ; psi
	lw a1, 0xA0(zero)       ; fx
	call fxb_mulq24
	lw t0, 0xA4(zero)       ; fy
	add t0, t0, t4
	sub t0, t0, a0          ; hy
	lw t1, 0xB0(zero)       ; zy
	sub t1, t1, t0
	sw t1, 0x8C(zero)       ; nuY

	; ---- Jacobian rows: hxr = [0, -fz, fy]; hyr = [fz, 0, -fx] ----
	sw zero, 0x40(zero)
	lw t0, 0xA8(zero)
	neg t1, t0
	sw t1, 0x44(zero)
	lw t1, 0xA4(zero)
	sw t1, 0x48(zero)
	sw t0, 0x4C(zero)
	sw zero, 0x50(zero)
	lw t0, 0xA0(zero)
	neg t1, t0
	sw t1, 0x54(zero)

	; ---- phx = P · hxr ; phy = P · hyr ----
	li a0, 0x40
	li a1, 0x58
	call fxb_pmulvec
	li a0, 0x4C
	li a1, 0x64
	call fxb_pmulvec

	; ---- S entries (Q30) ----
	li a0, 0x40
	li a1, 0x58
	call fxb_dot18
	lw t0, 8(zero)          ; rQ30
	add a0, a0, t0
	sw a0, 0x90(zero)       ; s00
	li a0, 0x4C
	li a1, 0x64
	call fxb_dot18
	lw t0, 8(zero)
	add a0, a0, t0
	sw a0, 0x98(zero)       ; s11
	li a0, 0x40
	li a1, 0x64
	call fxb_dot18
	sw a0, 0x94(zero)       ; s01

	; ---- det = mulS(s00,s11) - mulS(s01,s01), clamp >= 1 ----
	lw a0, 0x90(zero)
	lw a1, 0x98(zero)
	call fxb_muls30
	mv t4, a0
	lw a0, 0x94(zero)
	lw a1, 0x94(zero)
	call fxb_muls30
	sub t4, t4, a0
	li t0, 1
	bge t4, t0, fxb_detok
	li t4, 1
fxb_detok:
	sw t4, 0x9C(zero)       ; det

	; ---- gains: k0[i] = (phx[i]*s11 - phy[i]*s01)/det ----
	;       and   k1[i] = (phy[i]*s00 - phx[i]*s01)/det
	li fp, 0                ; i*4
fxb_gain_loop:
	; numerator for k0[i]
	addi t0, fp, 0x58
	lw a0, 0(t0)            ; phx[i]
	lw a1, 0x98(zero)       ; s11
	call fxb_smul64         ; (a0 lo, a1 hi)
	mv t3, a0
	mv t4, a1
	addi t0, fp, 0x64
	lw a0, 0(t0)            ; phy[i]
	lw a1, 0x94(zero)       ; s01
	call fxb_smul64
	; 64-bit subtract: (t3:t4) - (a0:a1)
	sltu t1, t3, a0         ; borrow
	sub t3, t3, a0
	sub t4, t4, a1
	sub t4, t4, t1
	mv a0, t3
	mv a1, t4
	lw a2, 0x9C(zero)       ; det
	call fxb_sdiv
	addi t0, fp, 0x70
	sw a0, 0(t0)            ; k0[i]
	; numerator for k1[i]
	addi t0, fp, 0x64
	lw a0, 0(t0)            ; phy[i]
	lw a1, 0x90(zero)       ; s00
	call fxb_smul64
	mv t3, a0
	mv t4, a1
	addi t0, fp, 0x58
	lw a0, 0(t0)            ; phx[i]
	lw a1, 0x94(zero)       ; s01
	call fxb_smul64
	sltu t1, t3, a0
	sub t3, t3, a0
	sub t4, t4, a1
	sub t4, t4, t1
	mv a0, t3
	mv a1, t4
	lw a2, 0x9C(zero)
	call fxb_sdiv
	addi t0, fp, 0x7C
	sw a0, 0(t0)            ; k1[i]
	addi fp, fp, 4
	li t0, 12
	blt fp, t0, fxb_gain_loop

	; ---- state update: x[i] += Mul(k0[i], nuX) + Mul(k1[i], nuY) ----
	li fp, 0
fxb_xup_loop:
	addi t0, fp, 0x70
	lw a0, 0(t0)
	lw a1, 0x88(zero)       ; nuX
	call fxb_mulq24
	mv t4, a0
	addi t0, fp, 0x7C
	lw a0, 0(t0)
	lw a1, 0x8C(zero)       ; nuY
	call fxb_mulq24
	add t4, t4, a0
	addi t0, fp, 0x0C
	lw t1, 0(t0)
	add t1, t1, t4
	sw t1, 0(t0)
	addi fp, fp, 4
	li t0, 12
	blt fp, t0, fxb_xup_loop

	; ---- covariance update: P[i][j] -= Mul(k0[i],phx[j]) + Mul(k1[i],phy[j]) ----
	; loop indices: fp = i*4, t2 = j*4 (t2 spilled around calls).
	li fp, 0
fxb_pup_i:
	li t2, 0
fxb_pup_j:
	addi t0, fp, 0x70
	lw a0, 0(t0)            ; k0[i]
	addi t0, t2, 0x58
	lw a1, 0(t0)            ; phx[j]
	sw t2, 0xB4(zero)       ; keep j safe across calls
	call fxb_mulq24
	mv t4, a0
	lw t2, 0xB4(zero)
	addi t0, fp, 0x7C
	lw a0, 0(t0)            ; k1[i]
	addi t0, t2, 0x64
	lw a1, 0(t0)            ; phy[j]
	sw t2, 0xB4(zero)
	sw t4, 0xBC(zero)
	call fxb_mulq24
	lw t4, 0xBC(zero)
	lw t2, 0xB4(zero)
	add t4, t4, a0
	; P index: (i*3 + j) words = fp*3 + t2 bytes
	add t0, fp, fp
	add t0, t0, fp          ; fp*3
	add t0, t0, t2
	addi t0, t0, 0x18
	lw t1, 0(t0)
	sub t1, t1, t4
	sw t1, 0(t0)
	addi t2, t2, 4
	li t0, 12
	blt t2, t0, fxb_pup_j
	addi fp, fp, 4
	li t0, 12
	blt fp, t0, fxb_pup_i

	; ---- symmetrise (trunc-toward-zero halving) and clamp diag ----
	; pairs: (0,1)=0x1C/0x24  (0,2)=0x20/0x30  (1,2)=0x2C/0x34
	lw t0, 0x1C(zero)
	lw t1, 0x24(zero)
	add t0, t0, t1
	srli t1, t0, 31
	add t0, t0, t1
	srai t0, t0, 1
	sw t0, 0x1C(zero)
	sw t0, 0x24(zero)
	lw t0, 0x20(zero)
	lw t1, 0x30(zero)
	add t0, t0, t1
	srli t1, t0, 31
	add t0, t0, t1
	srai t0, t0, 1
	sw t0, 0x20(zero)
	sw t0, 0x30(zero)
	lw t0, 0x2C(zero)
	lw t1, 0x34(zero)
	add t0, t0, t1
	srli t1, t0, 31
	add t0, t0, t1
	srai t0, t0, 1
	sw t0, 0x2C(zero)
	sw t0, 0x34(zero)
	li t1, 1
	lw t0, 0x18(zero)
	bge t0, t1, fxb_c1
	sw t1, 0x18(zero)
fxb_c1:
	lw t0, 0x28(zero)
	bge t0, t1, fxb_c2
	sw t1, 0x28(zero)
fxb_c2:
	lw t0, 0x38(zero)
	bge t0, t1, fxb_c3
	sw t1, 0x38(zero)
fxb_c3:

	; ---- emit state, advance ----
	lw t0, 0x0C(zero)
	sw t0, 0(s2)
	lw t0, 0x10(zero)
	sw t0, 4(s2)
	lw t0, 0x14(zero)
	sw t0, 8(s2)
	addi s2, s2, 12
	addi s1, s1, 20
	addi s0, s0, -1
	j fxb_epoch
fxb_done:
	halt

; ---------------------------------------------------------------
; fxb_smul64: signed 32x32 -> 64. a0, a1 in; returns a0 = lo,
; a1 = hi. Clobbers t0, t1.
; ---------------------------------------------------------------
fxb_smul64:
	mul t0, a0, a1          ; low 32 (same signed/unsigned)
	mulhu t1, a0, a1        ; unsigned high
	bge a0, zero, fxs_a_ok
	sub t1, t1, a1          ; correct for a0's sign
fxs_a_ok:
	bge a1, zero, fxs_b_ok
	sub t1, t1, a0          ; correct for a1's sign
fxs_b_ok:
	mv a0, t0
	mv a1, t1
	ret

; ---------------------------------------------------------------
; fxb_mulq24: Mul(a0, a1) = round-away-from-zero (a0*a1) >> 24.
; Returns a0. Clobbers a1, t0, t1, t2.
; ---------------------------------------------------------------
fxb_mulq24:
	subi sp, sp, 4
	sw ra, 0(sp)
	call fxb_smul64         ; a0 = lo, a1 = hi
	lw ra, 0(sp)
	addi sp, sp, 4
	bge a1, zero, fxm_pos
	; negative: negate 64, round, shift, negate back
	sub a0, zero, a0        ; lo' = -lo
	not a1, a1              ; hi' = ~hi (+1 if lo was 0)
	bnez a0, fxm_neg1
	addi a1, a1, 1
fxm_neg1:
	li t0, 0x800000
	add t1, a0, t0          ; lo + half
	sltu t2, t1, a0         ; carry
	add a1, a1, t2
	srli t1, t1, 24
	slli a1, a1, 8
	or a0, t1, a1
	sub a0, zero, a0
	ret
fxm_pos:
	li t0, 0x800000
	add t1, a0, t0
	sltu t2, t1, a0
	add a1, a1, t2
	srli t1, t1, 24
	slli a1, a1, 8
	or a0, t1, a1
	ret

; ---------------------------------------------------------------
; fxb_pmulvec: out[i] = sum_j Mul(P[i][j], v[j]) for i in 0..2.
; a0 = byte address of v (3 words), a1 = byte address of out.
; ---------------------------------------------------------------
fxb_pmulvec:
	subi sp, sp, 20
	sw ra, 0(sp)
	sw s0, 4(sp)
	sw s1, 8(sp)
	sw s2, 12(sp)
	sw fp, 16(sp)
	mv s0, a0               ; v
	mv s1, a1               ; out
	li s2, 0x18             ; P row pointer
	li fp, 0                ; row count
fxpv_row:
	; acc = Mul(P[i][0],v[0]) + Mul(P[i][1],v[1]) + Mul(P[i][2],v[2])
	lw a0, 0(s2)
	lw a1, 0(s0)
	call fxb_mulq24
	mv t4, a0
	sw t4, 0xC0(zero)
	lw a0, 4(s2)
	lw a1, 4(s0)
	call fxb_mulq24
	lw t4, 0xC0(zero)
	add t4, t4, a0
	sw t4, 0xC0(zero)
	lw a0, 8(s2)
	lw a1, 8(s0)
	call fxb_mulq24
	lw t4, 0xC0(zero)
	add t4, t4, a0
	sw t4, 0(s1)
	addi s1, s1, 4
	addi s2, s2, 12
	addi fp, fp, 1
	li t0, 3
	blt fp, t0, fxpv_row
	lw ra, 0(sp)
	lw s0, 4(sp)
	lw s1, 8(sp)
	lw s2, 12(sp)
	lw fp, 16(sp)
	addi sp, sp, 20
	ret

; ---------------------------------------------------------------
; fxb_dot18: (a[0]*b[0] + a[1]*b[1] + a[2]*b[2]) >> 18 with full
; 64-bit accumulation. a0 = addr of a, a1 = addr of b; returns a0.
; ---------------------------------------------------------------
fxb_dot18:
	subi sp, sp, 20
	sw ra, 0(sp)
	sw s0, 4(sp)
	sw s1, 8(sp)
	sw s2, 12(sp)
	sw fp, 16(sp)
	mv s0, a0
	mv s1, a1
	li s2, 0                ; acc lo
	li fp, 0                ; acc hi
	li t4, 0                ; index bytes
	sw t4, 0xC4(zero)
fxd_term:
	lw t4, 0xC4(zero)
	add t0, s0, t4
	lw a0, 0(t0)
	add t0, s1, t4
	lw a1, 0(t0)
	call fxb_smul64         ; a0 lo, a1 hi
	add t0, s2, a0          ; acc lo
	sltu t1, t0, s2         ; carry
	mv s2, t0
	add fp, fp, a1
	add fp, fp, t1
	lw t4, 0xC4(zero)
	addi t4, t4, 4
	sw t4, 0xC4(zero)
	li t0, 12
	blt t4, t0, fxd_term
	; arithmetic >> 18 of (fp:s2), result fits 32 bits
	srli a0, s2, 18
	slli t0, fp, 14
	or a0, a0, t0
	lw ra, 0(sp)
	lw s0, 4(sp)
	lw s1, 8(sp)
	lw s2, 12(sp)
	lw fp, 16(sp)
	addi sp, sp, 20
	ret

; ---------------------------------------------------------------
; fxb_muls30: (a0*a1) >> 30 (arithmetic, no rounding). Returns a0.
; ---------------------------------------------------------------
fxb_muls30:
	subi sp, sp, 4
	sw ra, 0(sp)
	call fxb_smul64
	lw ra, 0(sp)
	addi sp, sp, 4
	srli a0, a0, 30
	slli a1, a1, 2
	or a0, a0, a1
	ret

; ---------------------------------------------------------------
; fxb_sdiv: signed (a1:a0) / a2, truncated toward zero; divisor
; positive and < 2^30; quotient fits 32 bits. Returns a0.
; ---------------------------------------------------------------
fxb_sdiv:
	li t4, 0                ; sign flag
	bge a1, zero, fxv_abs_ok
	li t4, 1
	sub a0, zero, a0
	not a1, a1
	bnez a0, fxv_abs_ok
	addi a1, a1, 1
fxv_abs_ok:
	li t0, 0                ; remainder
	li t1, 0                ; quotient (low 32 kept)
	li t2, 32               ; bits in this word
fxv_hi_loop:
	srli t3, a1, 31         ; top bit of hi
	slli a1, a1, 1
	slli t0, t0, 1
	or t0, t0, t3
	slli t1, t1, 1
	bltu t0, a2, fxv_hi_next
	sub t0, t0, a2
	ori t1, t1, 1
fxv_hi_next:
	addi t2, t2, -1
	bnez t2, fxv_hi_loop
	li t2, 32
fxv_lo_loop:
	srli t3, a0, 31
	slli a0, a0, 1
	slli t0, t0, 1
	or t0, t0, t3
	slli t1, t1, 1
	bltu t0, a2, fxv_lo_next
	sub t0, t0, a2
	ori t1, t1, 1
fxv_lo_next:
	addi t2, t2, -1
	bnez t2, fxv_lo_loop
	mv a0, t1
	beqz t4, fxv_done
	sub a0, zero, a0
fxv_done:
	ret
`

// FxBoresightResult reports an on-core fixed-point boresight run.
type FxBoresightResult struct {
	// States holds the raw Q24 state after every epoch.
	States [][3]int32
	// Final is the last state decoded to angles.
	Final geom.Euler
	// CyclesPerUpdate is the measured cost of one fusion epoch.
	CyclesPerUpdate float64
	TotalCycles     uint64
	Instructions    uint64
	WallSeconds     float64 // host wall-clock time inside Run
	// Compiled holds the dispatch and intrinsic statistics when the run
	// used the fast engine (nil on the reference engine).
	Compiled *CompiledStats
}

// FxBoresightInput is one fusion epoch's data (SI units; quantised to
// Q24 at the memory boundary exactly as the host filter quantises).
type FxBoresightInput struct {
	F      geom.Vec3 // IMU body specific force (m/s²)
	AX, AY float64   // ACC readings (m/s²)
}

// MaxFxBoresightEpochs bounds one program run by the data store layout.
const MaxFxBoresightEpochs = (fxbOut - fxbIn) / fxbInStep

// FxBoresightProgram assembles the fixed-point boresight filter program
// — exported so benchmarks and the parity tests can load it onto a
// reusable CPU.
func FxBoresightProgram() (*Program, error) {
	return Assemble(fxBoresightMain)
}

// LoadFxBoresightInputs (re)writes the filter's input memory: noise
// parameters, state vector, full covariance, and the per-epoch
// measurement block. The state and every covariance entry are written
// (not only the initial diagonal) so a previously-run CPU is restored
// to a fresh filter without reloading the program.
func LoadFxBoresightInputs(c *CPU, cfg fxcore.Config, dt float64, inputs []FxBoresightInput) {
	c.StoreWord(fxbN, uint32(len(inputs)))
	// qStep = Mul(q, dtQ) exactly as fxcore computes per step.
	q := fxcore.FromFloat(cfg.AngleWalk * cfg.AngleWalk)
	qStep := fxcore.Mul(q, fxcore.FromFloat(dt))
	c.StoreWord(fxbQStep, uint32(int32(qStep)))
	r30 := fxcore.FromFloat(cfg.MeasNoise*cfg.MeasNoise) << 6
	c.StoreWord(fxbR30, uint32(int32(r30)))
	for i := 0; i < 3; i++ {
		c.StoreWord(uint32(fxbX+4*i), 0)
	}
	p0 := fxcore.FromFloat(cfg.InitAngleSigma * cfg.InitAngleSigma)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v := uint32(0)
			if i == j {
				v = uint32(int32(p0))
			}
			c.StoreWord(uint32(fxbP+4*(3*i+j)), v)
		}
	}
	for i, in := range inputs {
		base := uint32(fxbIn + fxbInStep*i)
		c.StoreWord(base, uint32(int32(fxcore.FromFloat(in.F[0]))))
		c.StoreWord(base+4, uint32(int32(fxcore.FromFloat(in.F[1]))))
		c.StoreWord(base+8, uint32(int32(fxcore.FromFloat(in.F[2]))))
		c.StoreWord(base+12, uint32(int32(fxcore.FromFloat(in.AX))))
		c.StoreWord(base+16, uint32(int32(fxcore.FromFloat(in.AY))))
	}
}

// FxBoresightRunBudget is the cycle budget one run over n epochs gets.
func FxBoresightRunBudget(n int) uint64 { return uint64(n)*60000 + 10000 }

// RunFxBoresight executes the full fixed-point boresight filter on the
// emulated core with the default (fast) engine. cfg supplies the noise
// parameters (the same ones fxcore.New takes); dt is the epoch period.
func RunFxBoresight(cfg fxcore.Config, dt float64, inputs []FxBoresightInput) (*FxBoresightResult, error) {
	return RunFxBoresightEngine(EngineFast, cfg, dt, inputs)
}

// RunFxBoresightEngine is RunFxBoresight on an explicitly selected
// engine.
func RunFxBoresightEngine(engine Engine, cfg fxcore.Config, dt float64, inputs []FxBoresightInput) (*FxBoresightResult, error) {
	if len(inputs) > MaxFxBoresightEpochs {
		return nil, fmt.Errorf("sabre: %d epochs exceed the data store (max %d)", len(inputs), MaxFxBoresightEpochs)
	}
	if cfg.MeasNoise <= 0 || cfg.InitAngleSigma <= 0 || dt <= 0 {
		return nil, fmt.Errorf("sabre: invalid fx boresight parameters")
	}
	prog, err := FxBoresightProgram()
	if err != nil {
		return nil, err
	}
	c := New()
	c.Engine = engine
	if err := c.LoadProgram(prog.Words); err != nil {
		return nil, err
	}
	LoadFxBoresightInputs(c, cfg, dt, inputs)
	var cs *CompiledStats
	if engine != EngineRef {
		cs = &CompiledStats{}
		c.CollectCompiledStats(cs)
	}
	t0 := time.Now()
	if _, err := c.Run(FxBoresightRunBudget(len(inputs))); err != nil {
		return nil, fmt.Errorf("sabre: fx boresight program: %w", err)
	}
	res := &FxBoresightResult{
		States:       make([][3]int32, len(inputs)),
		TotalCycles:  c.Cycles,
		Instructions: c.Instret,
		WallSeconds:  time.Since(t0).Seconds(),
		Compiled:     cs,
	}
	for i := range inputs {
		base := uint32(fxbOut + 12*i)
		for k := 0; k < 3; k++ {
			res.States[i][k] = int32(c.LoadWord(base + uint32(4*k)))
		}
	}
	if n := len(inputs); n > 0 {
		last := res.States[n-1]
		res.Final = geom.Euler{
			Roll:  fxcore.ToFloat(int64(last[0])),
			Pitch: fxcore.ToFloat(int64(last[1])),
			Yaw:   fxcore.ToFloat(int64(last[2])),
		}
		res.CyclesPerUpdate = float64(c.Cycles) / float64(n)
	}
	return res, nil
}
