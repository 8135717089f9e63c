package core

import (
	"fmt"

	"boresight/internal/mat"
)

// Reconfigure hot-swaps the estimator onto a new configuration mid-run
// without discarding what the filter has learned — the paper's
// run-time adaptation story applied to the estimator itself: a
// supervisor verdict (link degradation, a detected fault) can switch
// the process model, add or drop self-calibration blocks, or retune
// the noise densities while the filter keeps serving every epoch.
//
// State blocks present in both configurations carry their estimates
// and their full joint covariance across: the surviving covariance is
// a principal submatrix of the old P (a marginalisation), so it is
// positive semi-definite by construction and the uncertainty accounting
// stays consistent. Newly added blocks start at zero with their
// configured prior variance and no cross-covariance — exactly the
// statement "we know nothing about these yet, and nothing about how
// they relate to what we do know". Removed blocks are marginalised
// out. The attitude estimate, low-pass regressor states and all
// cumulative counters (Steps, Dropouts, HeldUpdates, Bumps, Gated)
// are preserved; transient run counters (gate lockout, exceedance
// runs, hold runs) reset because the model they were measuring is
// gone.
//
// On an invalid configuration the estimator is left untouched and the
// error returned. Reconfiguration is a rare event and is allowed to
// allocate; the per-epoch path stays allocation-free before and after.
func (e *Estimator) Reconfigure(cfg Config) error {
	if err := validateConfig(cfg); err != nil {
		return err
	}
	nl := layoutFor(cfg)

	// Pair up the old and new index of every state common to both
	// layouts; the angle block is always common.
	oldIdx := make([]int, 0, e.n)
	newIdx := make([]int, 0, nl.n)
	pair := func(oi, ni, count int) {
		if oi < 0 || ni < 0 {
			return
		}
		for k := 0; k < count; k++ {
			oldIdx = append(oldIdx, oi+k)
			newIdx = append(newIdx, ni+k)
		}
	}
	pair(0, 0, 3)
	pair(e.ibx, nl.ibx, 2)
	pair(e.isx, nl.isx, 2)
	pair(e.ilv, nl.ilv, 3)
	pair(e.iib, nl.iib, 3)
	pair(e.iis, nl.iis, 3)

	xOld := e.kf.State()
	pOld := e.kf.P()

	xNew := make([]float64, nl.n)
	prior := make([]float64, nl.n)
	priorDiagInto(prior, cfg, nl)
	pNew := mat.Diag(prior...)
	for a, oi := range oldIdx {
		xNew[newIdx[a]] = xOld[oi]
		for b, oj := range oldIdx {
			pNew.Set(newIdx[a], newIdx[b], pOld.At(oi, oj))
		}
	}

	e.kf.Resize(nl.n)
	e.kf.SetState(xNew)
	e.kf.SetP(pNew)

	e.cfg = cfg
	e.applyLayout(nl)

	// Noise machinery restarts against the new configuration: the old
	// window measured a model that no longer exists.
	e.initAdaptive(cfg)

	// Transient runs reset; cumulative telemetry survives.
	e.gateRun = 0
	e.exRun = 0
	e.heldRun = 0
	e.bumpCooldown = 0

	e.reconfigs++
	return nil
}

// ScaleProcessNoise derives a copy of the estimator's configuration
// with every process-noise spectral density multiplied by factor — the
// standard degraded-mode response: when the supervisor declares a
// stream stale the state is allowed to wander faster, so the filter
// re-converges quickly once data returns instead of trusting a
// covariance that went stale with the link.
func (e *Estimator) ScaleProcessNoise(factor float64) (Config, error) {
	if factor <= 0 {
		return Config{}, fmt.Errorf("core: process-noise scale factor %v must be positive", factor)
	}
	cfg := e.cfg
	cfg.AngleWalk *= factor
	cfg.BiasWalk *= factor
	cfg.ScaleWalk *= factor
	cfg.LeverWalk *= factor
	cfg.IMUBiasWalk *= factor
	cfg.IMUScaleWalk *= factor
	return cfg, nil
}

// Config returns the estimator's active configuration (the last one
// applied by New or Reconfigure).
func (e *Estimator) Config() Config { return e.cfg }
