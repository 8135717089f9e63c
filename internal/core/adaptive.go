package core

import (
	"math"

	"boresight/internal/geom"
	"boresight/internal/kalman"
	"boresight/internal/mat"
)

// AdaptiveConfig configures innovation-based online estimation of the
// measurement-noise covariance — the "adaptive" half of the paper's
// adaptive-systems claim, following the covariance-matching recipe of
// Nemec et al.'s intelligent MEMS fusion: each channel's mean-square
// innovation is estimated online and the fusion reweighted accordingly.
//
// For a consistent filter E[ννᵀ] = H·P·Hᵀ + R, so the per-axis sample
// statistic ν² − (H·P·Hᵀ) over a sliding window is an unbiased estimate
// of that axis's true measurement variance. The estimator maintains the
// window in a fixed ring buffer with a running sum (O(1) per update,
// zero allocations), clamps the estimate into [FloorSigma², CeilSigma²]
// so a burst of outliers or a dead-quiet window can never push R̂ into
// nonsense, and low-passes it with a forgetting factor so the filter
// gains don't chatter. The resulting per-axis R̂ replaces the hand-tuned
// Config.MeasNoise in every update; StepDegraded's held-sample
// inflation multiplies on top, so the dropout machinery and the noise
// adaptation compose instead of fighting.
type AdaptiveConfig struct {
	// Enabled turns innovation-matching R estimation on.
	Enabled bool
	// Window is the ring length in accepted fresh updates over which
	// the innovation covariance is matched; <= 0 uses 200 (2 s at the
	// paper's 100 Hz).
	Window int
	// FloorSigma and CeilSigma clamp the per-axis σ̂ (m/s²); non-positive
	// values default to MeasNoise/5 and 10·MeasNoise. The floor keeps a
	// quiet window from collapsing R̂ (and with it the innovation gate)
	// to zero; the ceiling keeps an outlier burst from de-weighting the
	// sensor into irrelevance.
	FloorSigma, CeilSigma float64
	// Forget is the exponential blending weight on the previous R̂ at
	// each update, in (0, 1); values outside that range use 0.9. Higher
	// = smoother, slower tracking.
	Forget float64
}

// resolved returns the configuration with defaults filled in against
// the base measurement noise. A disabled config resolves to the zero
// value so the per-step fast path tests one bool.
func (a AdaptiveConfig) resolved(measNoise float64) AdaptiveConfig {
	if !a.Enabled {
		return AdaptiveConfig{}
	}
	if a.Window <= 0 {
		a.Window = 200
	}
	if a.FloorSigma <= 0 {
		a.FloorSigma = measNoise / 5
	}
	if a.CeilSigma <= 0 {
		a.CeilSigma = 10 * measNoise
	}
	if a.Forget <= 0 || a.Forget >= 1 {
		a.Forget = 0.9
	}
	return a
}

// clampVar clamps a variance estimate into the configured [floor², ceil²].
func (a AdaptiveConfig) clampVar(v float64) float64 {
	if lo := a.FloorSigma * a.FloorSigma; v < lo {
		return lo
	}
	if hi := a.CeilSigma * a.CeilSigma; v > hi {
		return hi
	}
	return v
}

// adaptR feeds one accepted fresh innovation into the per-axis rings
// and refreshes R̂ once the window is full. It allocates nothing: the
// rings are fixed at construction and the running sums update in O(1).
func (e *Estimator) adaptR(inn kalman.Innovation) {
	w := len(e.adRing[0])
	for j := 0; j < 2; j++ {
		nu := inn.Residual[j]
		// ν² − H·P·Hᵀ estimates this axis's measurement variance; the
		// predicted part is S minus the R we used this update.
		s := float64(nu*nu) - (inn.S.At(j, j) - e.rMat.At(j, j))
		if math.IsNaN(s) || math.IsInf(s, 0) {
			// A non-finite sample (astronomical residual squared) would
			// poison the running sum; skip the whole epoch.
			return
		}
		e.adSum[j] += s - e.adRing[j][e.adIdx]
		e.adRing[j][e.adIdx] = s
	}
	e.adIdx = (e.adIdx + 1) % w
	if e.adN < w {
		e.adN++
		return // wait for a full window before trusting the average
	}
	for j := 0; j < 2; j++ {
		target := e.ad.clampVar(e.adSum[j] / float64(w))
		e.rhat[j] = e.ad.clampVar(float64(e.ad.Forget*e.rhat[j]) + float64((1-e.ad.Forget)*target))
	}
}

// measVar returns the per-axis measurement variance for the next
// update: the online R̂ when adaptive estimation is on, the configured
// scalar noise otherwise.
func (e *Estimator) measVar() (rx, ry float64) {
	if e.ad.Enabled {
		return e.rhat[0], e.rhat[1]
	}
	r := e.cfg.MeasNoise * e.cfg.MeasNoise
	return r, r
}

// RHat returns the current per-axis measurement-noise estimate σ̂
// (m/s²). With adaptive estimation off it reports the configured
// scalar on both axes.
func (e *Estimator) RHat() (sx, sy float64) {
	rx, ry := e.measVar()
	return math.Sqrt(rx), math.Sqrt(ry)
}

// MeanNIS returns the mean normalised innovation squared (νᵀS⁻¹ν) over
// all accepted measurement updates — χ²(2)-distributed per update for a
// consistent filter, so a healthy long-run mean sits near 2. Gated
// outliers and dropout epochs are excluded.
func (e *Estimator) MeanNIS() float64 {
	if e.nisN == 0 {
		return 0
	}
	return e.nisSum / float64(e.nisN)
}

// AngleNEES returns the normalised estimation error squared of the
// misalignment block against a known truth: δᵀ·P_aa⁻¹·δ where δ is the
// small-angle rotation from the estimated to the true attitude in the
// sensor frame (the same parameterisation as the δa error states) and
// P_aa the angle marginal covariance. For a consistent estimator it is
// χ²(3)-distributed. It is a simulation/harness diagnostic — truth is
// never available in the field — and allocates; call it at checkpoints,
// not per epoch. Returns an error when the marginal covariance cannot
// be factorised.
func (e *Estimator) AngleNEES(truth geom.Euler) (float64, error) {
	dq := e.att.Conj().Mul(truth.Quat())
	sign := 1.0
	if dq.W < 0 {
		sign = -1
	}
	d := []float64{2 * sign * dq.X, 2 * sign * dq.Y, 2 * sign * dq.Z}
	p := e.kf.P()
	paa := mat.New(3, 3)
	mat.CopyBlockTo(paa, 0, 0, p, 0, 0, 3, 3)
	chol, err := mat.CholeskyFactor(paa)
	if err != nil {
		return 0, err
	}
	sol := chol.SolveVec(d)
	return mat.Dot(d, sol), nil
}

// Reconfigs returns how many hot-swap reconfigurations the estimator
// has applied (see Reconfigure).
func (e *Estimator) Reconfigs() int { return e.reconfigs }
