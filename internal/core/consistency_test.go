package core

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/geom"
	"boresight/internal/stats"
)

// The statistical verification harness: seeded Monte-Carlo batches
// checked against chi-square acceptance intervals from internal/stats.
//
// For a consistent filter the NEES eᵀP⁻¹e of the three misalignment
// angles is χ²(3) per run and the NIS νᵀS⁻¹ν is χ²(2) per accepted
// update, so batch means must fall inside the chi-square interval for
// the batch size. Consistency testing needs the truth to be a sample
// from the filter's own model: the true misalignment is drawn from the
// prior and then random-walks with exactly the modelled AngleWalk
// density (as a right-multiplicative quaternion perturbation — the
// same parameterisation as the δa error states). NIS means are taken
// over windows that exclude the initial convergence transient, where
// linearisation error makes the first tens of epochs legitimately
// non-chi-square.

// harnessConfig is the consistency-test configuration: gates off (every
// epoch must feed the statistics), a 2° prior (comfortably inside the
// EKF's linear regime), and an angle walk large enough that the steady
// state covariance dominates the small lag bias the low-passed
// Jacobian regressor introduces.
func harnessConfig() Config {
	cfg := anglesOnlyConfig()
	cfg.GateSigma = 0
	cfg.InitAngleSigma = geom.Deg2Rad(2)
	cfg.AngleWalk = 1e-3
	return cfg
}

// consistencyTruth holds one run's ground-truth attitude and its
// estimator.
type consistencyTruth struct {
	q geom.Quat // true sensor-to-body rotation
	e *Estimator
}

// tiltAt returns a slowly rocking platform attitude; the time-varying
// horizontal force components make all three angles (including yaw)
// observable.
func tiltAt(tsec float64) geom.Euler {
	return geom.EulerDeg(15*math.Sin(0.5*tsec), 15*math.Sin(0.8*tsec+1), 0)
}

// newConsistencyRun draws a truth misalignment from the filter's own
// prior and builds its estimator.
func newConsistencyRun(rng *rand.Rand, cfg Config) consistencyTruth {
	mis := geom.Euler{
		Roll:  cfg.InitAngleSigma * rng.NormFloat64(),
		Pitch: cfg.InitAngleSigma * rng.NormFloat64(),
		Yaw:   cfg.InitAngleSigma * rng.NormFloat64(),
	}
	return consistencyTruth{q: mis.Quat(), e: New(cfg)}
}

// stepRun advances the truth by its matched random walk and the filter
// by one epoch with the given measurement noise and body force.
func (c *consistencyTruth) stepRun(t *testing.T, rng *rand.Rand, f geom.Vec3, dt, sig float64) {
	t.Helper()
	walk := c.e.cfg.AngleWalk
	if walk > 0 {
		s := walk * math.Sqrt(dt)
		dw := geom.Vec3{s * rng.NormFloat64(), s * rng.NormFloat64(), s * rng.NormFloat64()}
		if n := dw.Norm(); n > 0 {
			c.q = c.q.Mul(geom.QuatFromAxisAngle(dw, n))
		}
	}
	fs := c.q.Conj().Apply(f)
	zx := fs[0] + sig*rng.NormFloat64()
	zy := fs[1] + sig*rng.NormFloat64()
	if _, err := c.e.Step(dt, f, zx, zy); err != nil {
		t.Fatal(err)
	}
}

// meanNEES returns the batch-mean angle NEES across runs.
func meanNEES(t *testing.T, runs []consistencyTruth) float64 {
	t.Helper()
	sum := 0.0
	for i := range runs {
		v, err := runs[i].e.AngleNEES(runs[i].q.Euler())
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	return sum / float64(len(runs))
}

// nisTotals sums the accepted-update NIS accumulators across runs.
func nisTotals(runs []consistencyTruth) (sum float64, n int) {
	for i := range runs {
		sum += runs[i].e.nisSum
		n += runs[i].e.nisN
	}
	return sum, n
}

// TestNEESConsistencyFixedNoise is the null case: no noise drift, no
// adaptation — the plain filter must be chi-square consistent, which
// validates the harness itself (a mis-derived NEES or NIS would fail
// here first).
func TestNEESConsistencyFixedNoise(t *testing.T) {
	const (
		runs   = 20
		dt     = 0.01
		skipAt = 400 // NIS transient exclusion
		endAt  = 2000
	)
	cfg := harnessConfig()
	rng := rand.New(rand.NewSource(7))
	batch := make([]consistencyTruth, runs)
	for i := range batch {
		batch[i] = newConsistencyRun(rng, cfg)
	}
	var skipSum float64
	var skipN int
	for k := 0; k < endAt; k++ {
		if k == skipAt {
			skipSum, skipN = nisTotals(batch)
		}
		f := tiltForce(tiltAt(float64(k) * dt))
		for i := range batch {
			batch[i].stepRun(t, rng, f, dt, cfg.MeasNoise)
		}
	}
	lo, hi := stats.MeanChiSquareBounds(3, runs, 0.999)
	if m := meanNEES(t, batch); m < lo || m > hi {
		t.Errorf("mean NEES %.3f outside 99.9%% interval [%.3f, %.3f]", m, lo, hi)
	}
	totSum, totN := nisTotals(batch)
	nisMean := (totSum - skipSum) / float64(totN-skipN)
	// NIS epochs correlate slightly through the shared linearisation
	// point, so widen the iid chi-square interval by a safety margin.
	lo2, hi2 := stats.MeanChiSquareBounds(2, (totN-skipN)/4, 0.999)
	if nisMean < lo2 || nisMean > hi2 {
		t.Errorf("mean NIS %.4f outside [%.4f, %.4f]", nisMean, lo2, hi2)
	}
}

// TestNEESNISConsistencyAcrossAdaptation is the harness's tentpole
// assertion: the adaptive filter stays chi-square consistent before an
// unmodelled ×3 noise step, remains bounded through re-adaptation, and
// returns to consistency — with R̂ settled at the new level — after.
func TestNEESNISConsistencyAcrossAdaptation(t *testing.T) {
	const (
		runs     = 20
		dt       = 0.01
		sig1     = 0.01
		sig2     = 0.03
		skipAt   = 400  // NIS transient exclusion
		stepAt   = 1200 // noise step epoch
		settleAt = 2400 // epoch by which R̂ must have re-converged
		endAt    = 3600
	)
	cfg := harnessConfig()
	cfg.AdaptiveR.Enabled = true

	rng := rand.New(rand.NewSource(2026))
	batch := make([]consistencyTruth, runs)
	for i := range batch {
		batch[i] = newConsistencyRun(rng, cfg)
	}

	var skipSum, preSum, settleSum float64
	var skipN, preN, settleN int
	for k := 0; k < endAt; k++ {
		switch k {
		case skipAt:
			skipSum, skipN = nisTotals(batch)
		case settleAt:
			settleSum, settleN = nisTotals(batch)
		}
		sig := sig1
		if k >= stepAt {
			sig = sig2
		}
		f := tiltForce(tiltAt(float64(k) * dt))
		for i := range batch {
			batch[i].stepRun(t, rng, f, dt, sig)
		}
		switch k {
		case stepAt - 1:
			// BEFORE the step: full consistency.
			lo, hi := stats.MeanChiSquareBounds(3, runs, 0.999)
			if m := meanNEES(t, batch); m < lo || m > hi {
				t.Errorf("pre-step mean NEES %.3f outside [%.3f, %.3f]", m, lo, hi)
			}
			preSum, preN = nisTotals(batch)
			nisMean := (preSum - skipSum) / float64(preN-skipN)
			lo2, hi2 := stats.MeanChiSquareBounds(2, (preN-skipN)/4, 0.999)
			if nisMean < lo2 || nisMean > hi2 {
				t.Errorf("pre-step mean NIS %.4f outside [%.4f, %.4f]", nisMean, lo2, hi2)
			}
		case settleAt - 1:
			// DURING re-adaptation: transiently overconfident is expected
			// (R̂ lags the step); demand boundedness, not consistency.
			_, hi := stats.MeanChiSquareBounds(3, runs, 0.999)
			if m := meanNEES(t, batch); m > 5*hi {
				t.Errorf("mid-adaptation mean NEES %.3f diverged (bound %.3f)", m, 5*hi)
			}
		}
	}

	// AFTER: consistency restored at the new noise level.
	lo, hi := stats.MeanChiSquareBounds(3, runs, 0.999)
	if m := meanNEES(t, batch); m < lo || m > hi {
		t.Errorf("post-adaptation mean NEES %.3f outside [%.3f, %.3f]", m, lo, hi)
	}
	totSum, totN := nisTotals(batch)
	nisMean := (totSum - settleSum) / float64(totN-settleN)
	lo2, hi2 := stats.MeanChiSquareBounds(2, (totN-settleN)/4, 0.999)
	if nisMean < lo2 || nisMean > hi2 {
		t.Errorf("post-settle mean NIS %.4f outside [%.4f, %.4f]", nisMean, lo2, hi2)
	}

	// And the adapted R̂ must actually sit at the new noise level.
	for i := range batch {
		sx, sy := batch[i].e.RHat()
		for _, s := range []float64{sx, sy} {
			if math.Abs(s-sig2)/sig2 > 0.3 {
				t.Errorf("run %d: final σ̂ %v not within 30%% of %v", i, s, sig2)
			}
		}
	}
}

// TestNEESConsistencyWithSelfCalibration runs the augmented filter —
// IMU bias states on, a true IMU bias injected into the reference
// measurement — and demands the angle marginal stays consistent while
// the bias states absorb the error. A filter without the augmentation
// fails this scenario: the unmodelled bias shows up as a false
// misalignment far outside the angle covariance.
func TestNEESConsistencyWithSelfCalibration(t *testing.T) {
	const (
		runs  = 15
		dt    = 0.01
		endAt = 4000
	)
	cfg := harnessConfig()
	cfg.EstimateIMUBias = true
	cfg.InitIMUBiasSigma = 0.02
	rng := rand.New(rand.NewSource(11))
	batch := make([]consistencyTruth, runs)
	trueBias := make([]geom.Vec3, runs)
	for i := range batch {
		batch[i] = newConsistencyRun(rng, cfg)
		trueBias[i] = geom.Vec3{
			cfg.InitIMUBiasSigma * rng.NormFloat64(),
			cfg.InitIMUBiasSigma * rng.NormFloat64(),
			cfg.InitIMUBiasSigma * rng.NormFloat64(),
		}
	}
	for k := 0; k < endAt; k++ {
		fTrue := tiltForce(tiltAt(float64(k) * dt))
		for i := range batch {
			c := &batch[i]
			// Truth walk, as in stepRun.
			s := cfg.AngleWalk * math.Sqrt(dt)
			dw := geom.Vec3{s * rng.NormFloat64(), s * rng.NormFloat64(), s * rng.NormFloat64()}
			if n := dw.Norm(); n > 0 {
				c.q = c.q.Mul(geom.QuatFromAxisAngle(dw, n))
			}
			// The ACC senses the true force; the IMU reports it plus the
			// IMU's own bias.
			fs := c.q.Conj().Apply(fTrue)
			zx := fs[0] + cfg.MeasNoise*rng.NormFloat64()
			zy := fs[1] + cfg.MeasNoise*rng.NormFloat64()
			fMeas := fTrue.Add(trueBias[i])
			if _, err := c.e.Step(dt, fMeas, zx, zy); err != nil {
				t.Fatal(err)
			}
		}
	}
	lo, hi := stats.MeanChiSquareBounds(3, runs, 0.999)
	if m := meanNEES(t, batch); m < lo || m > hi {
		t.Errorf("self-calibration mean NEES %.3f outside [%.3f, %.3f]", m, lo, hi)
	}
	// The bias estimates must be pulling toward the injected truth in
	// most runs (full convergence needs richer motion than a rocking
	// tilt, so ask for improvement over the zero prior, not equality).
	improved := 0
	for i := range batch {
		est := batch[i].e.IMUBias()
		if est.Sub(trueBias[i]).Norm() < trueBias[i].Norm() {
			improved++
		}
	}
	if improved < runs*2/3 {
		t.Errorf("IMU bias estimate improved on the prior in only %d/%d runs", improved, runs)
	}
}
