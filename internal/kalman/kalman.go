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
// costs O(n²m) for n states and m measurements, where forming I − KH
// and multiplying by it twice costs O(n³). Only the upper triangle is
// computed and mirrored, so P stays exactly symmetric.
//
// The price is accuracy when measurements are far more precise than
// the prior. The expanded form cancels terms of the size of P to leave
// the small posterior, so on a directly measured state the relative
// error of the posterior variance grows as ε·H·P·Hᵀ/R (ε ≈ 1.1e-16):
// about 2e-10 at a ratio of 1e6 and 1e-3 at 1e13, and at ~1/ε the
// variance rounds to 0, where Joseph keeps K·R·Kᵀ. It also takes U's
// own rounding to first order, scaled by the gain, where Joseph sees
// it only through K; that shows when several precise measurements meet
// a prior whose variances span decades (TestUpdateMatchesJoseph). The
// boresight filter makes m = 2 measurements at H·P·Hᵀ/R ≲ 1e6: the
// adaptive R̂ is floored at MeasNoise/5, and the serving scenarios peak
// at ~3e4 on their first epoch.
//
// # One innovation per epoch
//
// InnovationOnly computes the innovation statistics a gate needs, and
// Commit applies that same innovation, so a gated epoch computes U, S
// and the Cholesky factor of S once. Update is InnovationOnly followed
// by Commit. Commit solves S·Kᵀ = Uᵀ for the whole gain at once with
// mat's SolveRowsTo: two triangular sweeps over the m rows of Uᵀ, each
// n long, which give every row of K the bits of its own solve.
//
// # Performance model
//
// Every step of the filter runs against a per-filter scratch workspace
// (allocated lazily, reused for every subsequent step with the same
// measurement dimension), so PredictAdditive, Update, InnovationOnly and
// Commit perform zero heap allocations in steady state — the property
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

	// Measurement scratch, sized by the measurement dimension on first
	// use (and re-sized only if a later update changes dimension —
	// steady state never does). Matrices are row-major; U, K and
	// K·S − U are kept transposed, so the loops over states run along
	// contiguous rows.
	m     int
	h     []float64 // H (m×n)
	nu    []float64 // innovation z − h
	sigma []float64 // sqrt(diag(S))
	sol   []float64 // S⁻¹·ν for the Mahalanobis distance
	ut    []float64 // Uᵀ = H·P (m×n)
	kt    []float64 // Kᵀ (m×n)
	dt    []float64 // (K·S − U)ᵀ (m×n)
	sd    []float64 // S (m×m)
	s     *mat.Mat  // S, as Innovation.S and the Cholesky input
	chol  *mat.Cholesky

	// innovated is set by a successful innovation and cleared by
	// anything that changes x or P, so Commit can refuse a stale one.
	innovated bool
}

// New returns a filter with n states, zero estimate and zero covariance.
// Callers seed the covariance with SetP or SetPDiag before use.
func New(n int) *Filter {
	return &Filter{x: make([]float64, n), p: make([]float64, n*n)}
}

// ensureScratch sizes the measurement-dimension scratch buffers. Cheap
// after the first call with a given m; only a dimension change (a
// different sensor set coming online in the multi-sensor filter)
// reallocates.
func (f *Filter) ensureScratch(m int) {
	if f.m == m {
		return
	}
	n := len(f.x)
	f.m = m
	f.h = make([]float64, m*n)
	f.nu = make([]float64, m)
	f.sigma = make([]float64, m)
	f.sol = make([]float64, m)
	f.ut = make([]float64, m*n)
	f.kt = make([]float64, m*n)
	f.dt = make([]float64, m*n)
	f.sd = make([]float64, m*m)
	f.s = mat.New(m, m)
	f.chol = mat.NewCholesky(m)
}

// Dim returns the state dimension.
func (f *Filter) Dim() int { return len(f.x) }

// Resize re-dimensions the filter to n states: the estimate and
// covariance are zeroed and the measurement scratch is invalidated (it
// re-sizes lazily on the next update). Callers re-seed state and
// covariance afterwards with SetState/SetP — Resize is the mechanical
// half of a filter reconfiguration; the statistical half (which blocks
// carry over, what priors new states get) belongs to the model that
// owns the filter. A same-dimension Resize is a no-op so
// reconfigurations that only swap process matrices keep their state.
// Resize allocates; it is a rare-event path, not a per-epoch one.
func (f *Filter) Resize(n int) {
	if n < 1 {
		panic(fmt.Sprintf("kalman: Resize to %d states", n))
	}
	if n == len(f.x) {
		return
	}
	f.x = make([]float64, n)
	f.p = make([]float64, n*n)
	// Invalidate the measurement scratch: its n-sized buffers (gain,
	// P·Hᵀ) no longer fit, so force ensureScratch to rebuild on the
	// next update whatever measurement dimension it brings.
	f.m = -1
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
	return in.Mahalanobis * in.Mahalanobis
}

// innovate fills the innovation scratch (nu, h, ut, sd, s, chol, sigma,
// sol) for a measurement and returns the statistics; shared by Update
// and InnovationOnly.
func (f *Filter) innovate(z, h []float64, H, R *mat.Mat) (Innovation, error) {
	n := len(f.x)
	m := len(z)
	if len(h) != m || H.Rows() != m || H.Cols() != n || R.Rows() != m || R.Cols() != m {
		panic(fmt.Sprintf("kalman: measurement shape mismatch: z %d, h %d, H %dx%d, R %dx%d, n=%d",
			m, len(h), H.Rows(), H.Cols(), R.Rows(), R.Cols(), n))
	}
	f.innovated = false
	f.ensureScratch(m)
	mat.SubVecTo(f.nu, z, h)
	// U = P·Hᵀ, stored as Uᵀ. P is exactly symmetric, so column j of P
	// is row j, and row a of Uᵀ accumulates H[a][j]·P[j] over j — the
	// order of a row-by-column product, without its dependency chain.
	// Zero entries of H add nothing and are skipped.
	for a := 0; a < m; a++ {
		ua := f.ut[a*n : (a+1)*n]
		clear(ua)
		for j := 0; j < n; j++ {
			hv := H.At(a, j)
			f.h[a*n+j] = hv
			if hv == 0 {
				continue
			}
			pj := f.p[j*n:][:len(ua)]
			for i := range ua {
				ua[i] += float64(pj[i] * hv)
			}
		}
	}
	// S = H·U + R, symmetrised. Zero entries of H are skipped, as
	// mat.MulTo skips them, so S is the product mat would form.
	for a := 0; a < m; a++ {
		ha := f.h[a*n : (a+1)*n]
		for b := 0; b < m; b++ {
			ub := f.ut[b*n : (b+1)*n]
			var s float64
			for j, hv := range ha {
				if hv != 0 {
					s += float64(hv * ub[j])
				}
			}
			f.sd[a*m+b] = s + R.At(a, b)
		}
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			v := 0.5 * (f.sd[a*m+b] + f.sd[b*m+a])
			f.sd[a*m+b], f.sd[b*m+a] = v, v
		}
		for b := 0; b < m; b++ {
			f.s.Set(a, b, f.sd[a*m+b])
		}
	}
	if err := f.chol.Factorize(f.s); err != nil {
		return Innovation{}, ErrIllConditioned
	}
	for i := range f.sigma {
		f.sigma[i] = math.Sqrt(f.sd[i*m+i])
	}
	f.chol.SolveVecTo(f.sol, f.nu)
	maha := math.Sqrt(math.Max(0, mat.Dot(f.nu, f.sol)))
	f.innovated = true
	return Innovation{Residual: f.nu, S: f.s, Sigma: f.sigma, Mahalanobis: maha}, nil
}

// Update applies a measurement z with predicted value h = h(x̂),
// Jacobian H (m×n) and noise covariance R (m×m): it is InnovationOnly
// followed by Commit. The covariance takes the expanded form of the
// package documentation, O(n²m) and insensitive to first-order gain
// error, whose relative accuracy on a directly measured state is
// ε·H·P·Hᵀ/R. It returns the pre-update innovation statistics (valid
// until the next Update/InnovationOnly call — see Innovation). It
// allocates nothing in steady state.
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
// Innovation). It allocates nothing in steady state.
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
	n, m := len(f.x), f.m
	// S·Kᵀ = Uᵀ, as S is symmetric: row i of K solves S·kᵢ = uᵢ.
	copy(f.kt, f.ut)
	f.chol.SolveRowsTo(f.kt, n)
	for i := range f.x {
		var s float64
		for a, v := range f.nu {
			s += float64(f.kt[a*n+i] * v)
		}
		f.x[i] += s
	}
	covUpdate(f.p, f.kt, f.ut, f.sd, f.dt, n, m)
}

// covUpdate overwrites the n×n covariance p with
// P − K·Uᵀ − U·Kᵀ + K·S·Kᵀ, given Kᵀ and Uᵀ (m×n) and the symmetric S
// (m×m), all row-major. It evaluates the identity as
// P − K·Uᵀ + (K·S − U)·Kᵀ, one product fewer per entry, with the m×n
// scratch dt holding (K·S − U)ᵀ, which is zero up to the error in K.
// The result is the optimal posterior plus Δ·S·Δᵀ when K is the exact
// gain plus Δ. Only the upper triangle is computed; the lower mirrors
// it.
func covUpdate(p, kt, ut, s, dt []float64, n, m int) {
	for b := 0; b < m; b++ {
		for i := 0; i < n; i++ {
			var t float64
			for a := 0; a < m; a++ {
				t += float64(kt[a*n+i] * s[a*m+b])
			}
			dt[b*n+i] = t - ut[b*n+i]
		}
	}
	// Entry (i, j) takes its m terms in order of a, as one sum would.
	for a := 0; a < m; a++ {
		ka, ua, da := kt[a*n:(a+1)*n], ut[a*n:(a+1)*n], dt[a*n:(a+1)*n]
		for i, kia := range ka {
			row := p[i*n+i : (i+1)*n]
			kr, ur := ka[i:i+len(row)], ua[i:i+len(row)]
			for j := range row {
				row[j] += float64(da[i]*kr[j]) - float64(kia*ur[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p[j*n+i] = p[i*n+j]
		}
	}
}
