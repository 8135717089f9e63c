// Package kalman implements the discrete Kalman filter used by the
// boresight sensor-fusion algorithm: additive covariance prediction, a
// measurement update that stays insensitive to gain error, and the
// innovation statistics (residuals and 3-sigma envelopes) the paper uses
// to tune measurement noise and to report confidence (Section 11).
//
// The filter is linear in the estimation error; nonlinear measurement
// models (the boresight rotation) supply their own predicted measurement
// and Jacobian per update, which makes this the "extended" form without
// the package needing to know the model.
//
// # Measurement update
//
// With U = P·Hᵀ, S = H·P·Hᵀ + R and gain K = U·S⁻¹, the covariance
// update is the expanded identity
//
//	P ← P − K·Uᵀ − U·Kᵀ + K·S·Kᵀ,
//
// which equals the Joseph form (I−KH)·P·(I−KH)ᵀ + K·R·Kᵀ for any K, so
// an error Δ in the computed gain only adds Δ·S·Δᵀ, as with Joseph. It
// costs O(n²) for n states and the filter's two measurements, where
// forming I − KH and multiplying by it twice costs O(n³). Only the upper
// triangle is computed and mirrored, so P stays exactly symmetric.
//
// The price is accuracy when measurements are far more precise than
// the prior. The expanded form cancels terms of the size of P to leave
// the small posterior, so on a directly measured state the relative
// error of the posterior variance grows as ε·H·P·Hᵀ/R (ε ≈ 1.1e-16):
// about 2e-10 at a ratio of 1e6 and 1e-3 at 1e13, and at ~1/ε the
// variance rounds to 0, where Joseph keeps K·R·Kᵀ. It also takes U's
// own rounding to first order, scaled by the gain, where Joseph sees
// it only through K. With two measurements on a prior whose variances
// span eight decades that reaches ~1e-12·√(PᵢᵢPⱼⱼ) of Joseph
// (TestUpdateMatchesJoseph). The boresight filter makes its updates at
// H·P·Hᵀ/R ≲ 1e6: the adaptive R̂ is floored at MeasNoise/5, and the
// serving scenarios peak at ~3e4 on their first epoch.
//
// # One innovation per epoch
//
// InnovationOnly computes the innovation statistics a gate needs, and
// Commit applies that same innovation, so a gated epoch computes U, S
// and the Cholesky factor of S once. Update is InnovationOnly followed
// by Commit. Commit solves S·Kᵀ = Uᵀ for each state's row of K with the
// factor InnovationOnly kept, which gives every row of K the bits of
// its own solve (TestGainMatchesRowSolves).
//
// # Two measurements
//
// The boresight filter measures two axes every epoch, and the filter
// takes exactly two measurements per update: Update and InnovationOnly
// panic on any other count. A multi-sensor model runs one filter per
// sensor (core.MultiEstimator), not one stacked update. The update does
// every floating-point operation of the general-m loops in the same
// order, so its results are bit-identical to them (TestPairMatchesRows,
// whose pair_test.go keeps those loops as the reference), in fewer
// passes: both rows of Uᵀ come from one sweep over P, the Cholesky
// factor of the 2×2 S and its solves are scalars, and each entry of P's
// upper triangle takes both measurements' terms in turn, its mirror
// written in the same pass. The scalars repeat the operations of mat's
// Cholesky in its order; the reference calls mat, so a change there
// fails TestPairMatchesRows. Calling mat instead cost a tenth of
// fleet-mixed throughput (DESIGN §10). A closed-form inverse of S would
// round differently and move every result.
//
// # Performance model
//
// Every step of the filter runs against a per-filter scratch workspace,
// sized with the state in New and Resize, so PredictAdditive, Update,
// InnovationOnly and Commit perform zero heap allocations — the property
// the paper's hard-real-time fusion loop depends on and that
// TestKalmanStepsAllocFree pins down with testing.AllocsPerRun. The
// price of buffer reuse is an aliasing rule: the Innovation returned by
// Update/InnovationOnly borrows the workspace, so its Residual, S and
// Sigma fields are only valid until the filter's next Update or
// InnovationOnly call. Callers that need the history copy the values
// out (scalars, or Clone for S), which is what every caller in this
// repository already did.
//
// Every product in this package's loops is wrapped in an explicit
// float64 conversion, which the Go spec makes round, so no architecture
// fuses it into a multiply-add and the loops round as they do on amd64;
// make fma-check holds this package and the mat kernels it calls to it.
package kalman

import (
	"errors"
	"fmt"
	"math"

	"boresight/internal/mat"
)

// ErrIllConditioned is returned when the innovation covariance cannot be
// factorised, indicating an inconsistent or degenerate filter setup.
var ErrIllConditioned = errors.New("kalman: innovation covariance not positive definite")

// Filter carries the state estimate and covariance of a Kalman filter
// with a fixed state dimension.
type Filter struct {
	x []float64
	p []float64 // covariance, n×n row-major, exactly symmetric

	// Scratch for the two measurements of an update, sized with the
	// state. Matrices are row-major; U and K are kept transposed, so the
	// loops over states run along contiguous rows.
	h     []float64  // H (2×n)
	nu    []float64  // innovation z − h
	sigma []float64  // sqrt(diag(S))
	ut    []float64  // Uᵀ = H·P (2×n)
	kt    []float64  // Kᵀ (2×n)
	sd    [4]float64 // S (2×2)
	s     *mat.Mat   // S, as Innovation.S
	l     [3]float64 // S's Cholesky factor L00, L10, L11

	// innovated is set by a successful innovation and cleared by
	// anything that changes x or P, so Commit can refuse a stale one.
	innovated bool
}

// New returns a filter with n states, zero estimate and zero covariance.
// Callers seed the covariance with SetP or SetPDiag before use.
func New(n int) *Filter {
	f := &Filter{nu: make([]float64, 2), sigma: make([]float64, 2), s: mat.New(2, 2)}
	f.size(n)
	return f
}

// size allocates the state, the covariance and the measurement scratch
// whose length depends on the state dimension n.
func (f *Filter) size(n int) {
	f.x = make([]float64, n)
	f.p = make([]float64, n*n)
	f.h = make([]float64, 2*n)
	f.ut = make([]float64, 2*n)
	f.kt = make([]float64, 2*n)
}

// Dim returns the state dimension.
func (f *Filter) Dim() int { return len(f.x) }

// Resize re-dimensions the filter to n states: the estimate and
// covariance are zeroed and the measurement scratch is re-sized with
// them. Callers re-seed state and covariance afterwards with
// SetState/SetP — Resize is the mechanical half of a filter
// reconfiguration; the statistical half (which blocks carry over, what
// priors new states get) belongs to the model that owns the filter. A
// same-dimension Resize is a no-op so reconfigurations that only swap
// process matrices keep their state. Resize allocates; it is a
// rare-event path, not a per-epoch one.
func (f *Filter) Resize(n int) {
	if n < 1 {
		panic(fmt.Sprintf("kalman: Resize to %d states", n))
	}
	if n == len(f.x) {
		return
	}
	f.size(n)
	f.innovated = false
}

// Reset zeroes the state estimate and covariance in place, keeping
// every scratch buffer, so a filter can be re-used for a fresh run
// without touching the heap. Callers re-seed the covariance with
// SetPDiag (or SetP) afterwards, exactly as after New.
func (f *Filter) Reset() {
	clear(f.x)
	clear(f.p)
	f.innovated = false
}

// SetPDiag zeroes the covariance and installs the given diagonal in
// place — the allocation-free form of SetP(mat.Diag(...)) that the
// reusable-runner path depends on. diag must have length Dim.
func (f *Filter) SetPDiag(diag []float64) {
	n := len(f.x)
	if len(diag) != n {
		panic(fmt.Sprintf("kalman: SetPDiag got %d values for %d states", len(diag), n))
	}
	clear(f.p)
	for i, v := range diag {
		f.p[i*n+i] = v
	}
	f.innovated = false
}

// SetStateAt overwrites one entry of the state estimate — the
// allocation-free alternative to the State-modify-SetState round trip.
func (f *Filter) SetStateAt(i int, v float64) {
	if i < 0 || i >= len(f.x) {
		panic(fmt.Sprintf("kalman: SetStateAt index %d out of range for %d states", i, len(f.x)))
	}
	f.x[i] = v
	f.innovated = false
}

// SetCovAt overwrites entry (i, j) of the covariance and its mirror
// (j, i), so P stays symmetric.
func (f *Filter) SetCovAt(i, j int, v float64) {
	n := len(f.x)
	if i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("kalman: SetCovAt index (%d,%d) out of range for %d states", i, j, n))
	}
	f.p[i*n+j] = v
	f.p[j*n+i] = v
	f.innovated = false
}

// NEES returns the normalised estimation error squared eᵀ·P⁻¹·e for a
// caller-supplied error vector e (estimate minus truth) — the
// consistency statistic that is χ²(Dim)-distributed when the filter's
// covariance honestly describes its errors. It is a diagnostic (it
// factorises P afresh and allocates); simulation harnesses call it at
// checkpoints, not per epoch. Returns ErrIllConditioned when P cannot
// be factorised.
func (f *Filter) NEES(err []float64) (float64, error) {
	if len(err) != len(f.x) {
		panic(fmt.Sprintf("kalman: NEES got %d-error for %d states", len(err), len(f.x)))
	}
	chol, cerr := mat.CholeskyFactor(f.P())
	if cerr != nil {
		return 0, ErrIllConditioned
	}
	sol := chol.SolveVec(err)
	return mat.Dot(err, sol), nil
}

// State returns a copy of the state estimate. See StateInto for the
// allocation-free form.
func (f *Filter) State() []float64 {
	out := make([]float64, len(f.x))
	copy(out, f.x)
	return out
}

// StateAt returns one component of the state estimate without copying;
// the allocation-free read for callers that need a few named entries
// rather than a snapshot.
func (f *Filter) StateAt(i int) float64 { return f.x[i] }

// StateInto copies the state estimate into dst, which must have length
// Dim. It allocates nothing; hot loops that snapshot the state every
// step use this with a reused buffer.
func (f *Filter) StateInto(dst []float64) {
	if len(dst) != len(f.x) {
		panic(fmt.Sprintf("kalman: StateInto got %d-buffer for %d states", len(dst), len(f.x)))
	}
	copy(dst, f.x)
}

// SetState overwrites the state estimate.
func (f *Filter) SetState(x []float64) {
	if len(x) != len(f.x) {
		panic(fmt.Sprintf("kalman: SetState got %d values for %d states", len(x), len(f.x)))
	}
	copy(f.x, x)
	f.innovated = false
}

// P returns a copy of the covariance matrix. See PInto for the
// allocation-free form.
func (f *Filter) P() *mat.Mat { return mat.FromSlice(len(f.x), len(f.x), f.p) }

// PInto copies the covariance matrix into dst, which must be Dim×Dim.
// It allocates nothing.
func (f *Filter) PInto(dst *mat.Mat) {
	n := len(f.x)
	if dst.Rows() != n || dst.Cols() != n {
		panic(fmt.Sprintf("kalman: PInto got %dx%d for %d states", dst.Rows(), dst.Cols(), n))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst.Set(i, j, f.p[i*n+j])
		}
	}
}

// SetP overwrites the covariance matrix with the symmetric part
// (p + pᵀ)/2 of p, which is p itself when p is symmetric.
func (f *Filter) SetP(p *mat.Mat) {
	n := len(f.x)
	if p.Rows() != n || p.Cols() != n {
		panic(fmt.Sprintf("kalman: SetP got %dx%d for %d states", p.Rows(), p.Cols(), n))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			f.p[i*n+j] = 0.5 * (p.At(i, j) + p.At(j, i))
		}
	}
	f.innovated = false
}

// Sigma returns the 1-sigma uncertainty of state i (sqrt of the
// covariance diagonal).
func (f *Filter) Sigma(i int) float64 { return math.Sqrt(f.p[i*len(f.x)+i]) }

// PredictAdditive is the random-walk transition F = I with a diagonal
// process noise: the estimate is unchanged and P ← P + diag(qdiag). The
// boresight filter's states (misalignment angles, instrument biases)
// are modelled as near-constants, so this is its whole process model.
// qdiag must have length Dim. It allocates nothing.
func (f *Filter) PredictAdditive(qdiag []float64) {
	n := len(f.x)
	if len(qdiag) != n {
		panic(fmt.Sprintf("kalman: PredictAdditive got %d values for %d states", len(qdiag), n))
	}
	for i, q := range qdiag {
		f.p[i*n+i] += q
	}
	f.innovated = false
}

// Innovation reports the statistics of one measurement update: the
// pre-update residual, its covariance, per-component sigmas, and the
// normalised (Mahalanobis) distance. The paper's Figure 8 plots exactly
// Residual[i] against ±3·Sigma[i].
//
// The slices and matrix borrow the filter's scratch workspace: they are
// valid until the filter's next Update or InnovationOnly call. Copy out
// (or Clone S) to keep a history.
type Innovation struct {
	// Residual is z − h(x̂), the measurement-space surprise.
	Residual []float64
	// S is the innovation covariance H·P·Hᵀ + R.
	S *mat.Mat
	// Sigma is sqrt(diag(S)); ±3·Sigma is the paper's 3σ envelope.
	Sigma []float64
	// Mahalanobis is sqrt(νᵀ·S⁻¹·ν), the residual in sigma units
	// accounting for correlations.
	Mahalanobis float64
}

// Exceeds3Sigma reports whether any residual component lies outside its
// 3σ envelope — the event the paper counts to decide the measurement
// noise is set too low (expected ~1% of samples when tuned).
func (in Innovation) Exceeds3Sigma() bool {
	for i, r := range in.Residual {
		if math.Abs(r) > 3*in.Sigma[i] {
			return true
		}
	}
	return false
}

// Chi2 returns the squared Mahalanobis distance νᵀ·S⁻¹·ν — the
// chi-square statistic of the innovation, distributed χ²(m) for an
// m-dimensional consistent measurement. Gating on it is the classical
// chi-square innovation test (compare against the χ² quantile for the
// measurement dimension, e.g. 13.8 for 99.9% with m = 2).
func (in Innovation) Chi2() float64 {
	return float64(in.Mahalanobis * in.Mahalanobis)
}

// innovate fills the innovation scratch for a measurement and returns
// the statistics; shared by Update and InnovationOnly.
func (f *Filter) innovate(z, h []float64, H, R *mat.Mat) (Innovation, error) {
	f.measure(z, h, H, R)
	maha, err := f.innovatePair(H, R)
	if err != nil {
		return Innovation{}, err
	}
	f.innovated = true
	return Innovation{Residual: f.nu, S: f.s, Sigma: f.sigma, Mahalanobis: maha}, nil
}

// measure checks a measurement's shapes against the filter and forms
// the residual ν = z − h. It panics unless there are two measurements.
func (f *Filter) measure(z, h []float64, H, R *mat.Mat) {
	n := len(f.x)
	m := len(z)
	if m != 2 {
		panic(fmt.Sprintf("kalman: %d measurements; the filter takes two", m))
	}
	if len(h) != m || H.Rows() != m || H.Cols() != n || R.Rows() != m || R.Cols() != m {
		panic(fmt.Sprintf("kalman: measurement shape mismatch: z %d, h %d, H %dx%d, R %dx%d, n=%d",
			m, len(h), H.Rows(), H.Cols(), R.Rows(), R.Cols(), n))
	}
	f.innovated = false
	mat.SubVecTo(f.nu, z, h)
}

// innovatePair forms the innovation with every operation of the
// general-m loops (innovateRows in pair_test.go) in their order, so bit
// for bit: both rows of Uᵀ in one sweep over the rows of P, the four
// sums of H·U in one sweep over H's columns, and the Cholesky factor of
// S and the Mahalanobis solve as scalars in mat's order. It fills h,
// ut, sd, s and sigma, and keeps the factor in l for commitPair.
func (f *Filter) innovatePair(H, R *mat.Mat) (float64, error) {
	n := len(f.x)
	h0, h1 := f.h[:n], f.h[n:2*n]
	u0, u1 := f.ut[:n], f.ut[n:2*n]
	// Row j of P adds to each row of Uᵀ whose H[a][j] is not zero, in
	// the order of j, as in innovateRows. Here and in commitPair every
	// sum starts from zero, as the loops' sums do: 0 + (−0) is +0.
	clear(f.ut)
	for j := range h0 {
		a, b := H.At(0, j), H.At(1, j)
		h0[j], h1[j] = a, b
		pj := f.p[j*n:][:len(u0)]
		switch {
		case a != 0 && b != 0:
			for i, v := range pj {
				u0[i] += float64(v * a)
				u1[i] += float64(v * b)
			}
		case a != 0:
			for i, v := range pj {
				u0[i] += float64(v * a)
			}
		case b != 0:
			for i, v := range pj {
				u1[i] += float64(v * b)
			}
		}
	}
	var s00, s01, s10, s11 float64
	for j, a := range h0 {
		if a != 0 {
			s00 += float64(a * u0[j])
			s01 += float64(a * u1[j])
		}
		if b := h1[j]; b != 0 {
			s10 += float64(b * u0[j])
			s11 += float64(b * u1[j])
		}
	}
	s00 += R.At(0, 0)
	s01 += R.At(0, 1)
	s10 += R.At(1, 0)
	s11 += R.At(1, 1)
	v := 0.5 * (s01 + s10)
	f.sd[0], f.sd[1], f.sd[2], f.sd[3] = s00, v, v, s11
	f.s.Set(0, 0, s00)
	f.s.Set(0, 1, v)
	f.s.Set(1, 0, v)
	f.s.Set(1, 1, s11)
	// mat.(*Cholesky).Factorize at n = 2: its sums start from zero, and
	// x − 0 is x.
	if s00 <= 0 {
		return 0, ErrIllConditioned
	}
	l00 := math.Sqrt(s00)
	l10 := v / l00
	d := s11 - float64(l10*l10)
	if d <= 0 {
		return 0, ErrIllConditioned
	}
	l11 := math.Sqrt(d)
	f.l = [3]float64{l00, l10, l11}
	f.sigma[0], f.sigma[1] = math.Sqrt(s00), math.Sqrt(s11)
	// SolveVecTo's forward and back sweeps, then mat.Dot.
	nu0, nu1 := f.nu[0], f.nu[1]
	y0 := nu0 / l00
	y1 := (nu1 - float64(l10*y0)) / l11
	x1 := y1 / l11
	x0 := (y0 - float64(l10*x1)) / l00
	var c float64
	c += float64(nu0 * x0)
	c += float64(nu1 * x1)
	return math.Sqrt(math.Max(0, c)), nil
}

// Update applies a measurement z with predicted value h = h(x̂),
// Jacobian H (2×n) and noise covariance R (2×2): it is InnovationOnly
// followed by Commit. The covariance takes the expanded form of the
// package documentation, O(n²) and insensitive to first-order gain
// error, whose relative accuracy on a directly measured state is
// ε·H·P·Hᵀ/R. It returns the pre-update innovation statistics (valid
// until the next Update/InnovationOnly call — see Innovation). It
// panics unless len(z) is 2 and allocates nothing.
func (f *Filter) Update(z, h []float64, H, R *mat.Mat) (Innovation, error) {
	inn, err := f.innovate(z, h, H, R)
	if err != nil {
		return inn, err
	}
	f.Commit()
	return inn, nil
}

// InnovationOnly computes the innovation statistics for a measurement
// without updating the filter — used for residual monitoring and for
// gating. Commit then applies this innovation without recomputing it.
// The returned Innovation borrows the same scratch as Update (see
// Innovation). It panics unless len(z) is 2 and allocates nothing.
func (f *Filter) InnovationOnly(z, h []float64, H, R *mat.Mat) (Innovation, error) {
	return f.innovate(z, h, H, R)
}

// Commit applies the measurement of the last successful InnovationOnly:
// K = U·S⁻¹, x ← x + K·ν and P ← P − K·Uᵀ − U·Kᵀ + K·S·Kᵀ. The
// Innovation that InnovationOnly returned stays valid. Commit panics
// unless an innovation was computed since the state or covariance last
// changed and not yet committed: applying a stale one would silently
// corrupt the filter. It allocates nothing.
func (f *Filter) Commit() {
	if !f.innovated {
		panic("kalman: Commit without a fresh innovation")
	}
	f.innovated = false
	f.commitPair()
}

// commitPair applies innovatePair's innovation with every operation of
// the general-m loops (commitRows and covUpdate in pair_test.go) in
// their order, so bit for bit. Each state's row of K takes mat's
// SolveRowsTo's four divisions from the scalar factor, then adds K·ν to
// x. Then each row of P's upper triangle is swept once with its two
// entries of (K·S − U)ᵀ: every entry takes covUpdate's a = 0 term, then
// its a = 1 term, and its mirror is written in the same pass.
func (f *Filter) commitPair() {
	n := len(f.x)
	p := f.p
	l00, l10, l11 := f.l[0], f.l[1], f.l[2]
	s00, s01, s11 := f.sd[0], f.sd[1], f.sd[3]
	nu0, nu1 := f.nu[0], f.nu[1]
	u0, u1 := f.ut[:n], f.ut[n:2*n]
	k0, k1 := f.kt[:n], f.kt[n:2*n]
	for i := range k0 {
		y0 := u0[i] / l00
		y1 := (u1[i] - float64(l10*y0)) / l11
		ki1 := y1 / l11
		ki0 := (y0 - float64(l10*ki1)) / l00
		k0[i], k1[i] = ki0, ki1
		var s float64
		s += float64(ki0 * nu0)
		s += float64(ki1 * nu1)
		f.x[i] += s
	}
	for i, ki0 := range k0 {
		ki1 := k1[i]
		var t0, t1 float64
		t0 += float64(ki0 * s00)
		t0 += float64(ki1 * s01)
		t1 += float64(ki0 * s01)
		t1 += float64(ki1 * s11)
		d0, d1 := t0-u0[i], t1-u1[i]
		row := p[i*n+i : (i+1)*n]
		kr0, ur0 := k0[i:][:len(row)], u0[i:][:len(row)]
		kr1, ur1 := k1[i:][:len(row)], u1[i:][:len(row)]
		for j, pij := range row {
			pij += float64(d0*kr0[j]) - float64(ki0*ur0[j])
			pij += float64(d1*kr1[j]) - float64(ki1*ur1[j])
			row[j] = pij
			p[(i+j)*n+i] = pij
		}
	}
}
