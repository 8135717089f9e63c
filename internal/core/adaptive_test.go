package core

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/geom"
)

// adaptiveConfig is the base configuration for the R̂-tracking tests:
// angles only (so convergence is fast and fully deterministic in the
// noise), gates off (so every epoch feeds the matcher and the tests
// measure pure covariance-matching behaviour).
func adaptiveConfig() Config {
	cfg := anglesOnlyConfig()
	cfg.GateSigma = 0
	cfg.AdaptiveR = AdaptiveConfig{Enabled: true}
	return cfg
}

// driveAdaptive runs the estimator on a level static pose with the
// given per-epoch noise schedule.
func driveAdaptive(t *testing.T, e *Estimator, rng *rand.Rand, mis geom.Euler, epochs int, sigma func(k int) float64) {
	t.Helper()
	f := levelForce()
	for k := 0; k < epochs; k++ {
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		s := sigma(k)
		zx += s * rng.NormFloat64()
		zy += s * rng.NormFloat64()
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdaptiveRTracksNoiseStep is the core convergence claim: when the
// true measurement noise steps ×3 mid-run, the online R̂ re-converges to
// the new level within a bounded number of epochs.
func TestAdaptiveRTracksNoiseStep(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := New(adaptiveConfig())
	mis := geom.EulerDeg(1.5, -2.0, 0)

	const sig1, sig2 = 0.01, 0.03
	driveAdaptive(t, e, rng, mis, 1000, func(int) float64 { return sig1 })
	sx, sy := e.RHat()
	for _, s := range []float64{sx, sy} {
		if s < 0.006 || s > 0.014 {
			t.Fatalf("pre-step σ̂ = %v, want near %v", s, sig1)
		}
	}

	// One window to refill plus the EMA time constant: 1200 epochs is a
	// generous but bounded re-convergence budget (12 s at 100 Hz).
	driveAdaptive(t, e, rng, mis, 1200, func(int) float64 { return sig2 })
	sx, sy = e.RHat()
	for _, s := range []float64{sx, sy} {
		if math.Abs(s-sig2)/sig2 > 0.25 {
			t.Errorf("post-step σ̂ = %v, want within 25%% of %v", s, sig2)
		}
	}
}

// TestAdaptiveRTracksRamp checks R̂ follows a slow ramp rather than only
// step changes.
func TestAdaptiveRTracksRamp(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New(adaptiveConfig())
	mis := geom.EulerDeg(1, 1, 0)

	const sig0, sig1 = 0.01, 0.05
	const rampLen = 3000
	driveAdaptive(t, e, rng, mis, 800, func(int) float64 { return sig0 })
	driveAdaptive(t, e, rng, mis, rampLen, func(k int) float64 {
		return sig0 + (sig1-sig0)*float64(k)/float64(rampLen)
	})
	// Hold at the final level for one window so the ring contains only
	// end-of-ramp samples.
	driveAdaptive(t, e, rng, mis, 400, func(int) float64 { return sig1 })
	sx, sy := e.RHat()
	for _, s := range []float64{sx, sy} {
		if math.Abs(s-sig1)/sig1 > 0.25 {
			t.Errorf("post-ramp σ̂ = %v, want within 25%% of %v", s, sig1)
		}
	}
}

// TestAdaptiveRCeilingClamp pins the upper clamp: noise far above the
// ceiling never pushes σ̂ past it.
func TestAdaptiveRCeilingClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := adaptiveConfig()
	cfg.AdaptiveR.CeilSigma = 0.02
	e := New(cfg)
	driveAdaptive(t, e, rng, geom.EulerDeg(1, 1, 0), 1500, func(int) float64 { return 0.2 })
	sx, sy := e.RHat()
	for _, s := range []float64{sx, sy} {
		if s > 0.02+1e-12 {
			t.Errorf("σ̂ = %v exceeded ceiling 0.02", s)
		}
	}
	// The estimate should actually sit at the ceiling, not below it.
	if sx < 0.019 || sy < 0.019 {
		t.Errorf("σ̂ = (%v, %v), want pinned at the 0.02 ceiling", sx, sy)
	}
}

// TestAdaptiveRFloorClamp pins the lower clamp: a constant-zero-noise
// window (where ν² − HPHᵀ goes slightly negative once converged) floors
// at FloorSigma and never produces a negative or NaN estimate.
func TestAdaptiveRFloorClamp(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.AdaptiveR.FloorSigma = 0.008
	e := New(cfg)
	rng := rand.New(rand.NewSource(44))
	driveAdaptive(t, e, rng, geom.EulerDeg(1, -1, 0), 2000, func(int) float64 { return 0 })
	sx, sy := e.RHat()
	for _, s := range []float64{sx, sy} {
		if math.IsNaN(s) || s < 0.008-1e-12 {
			t.Errorf("σ̂ = %v, want floored at 0.008", s)
		}
	}
}

// TestAdaptiveRPerAxis checks the two axes are estimated independently.
func TestAdaptiveRPerAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	e := New(adaptiveConfig())
	mis := geom.EulerDeg(1, 1, 0)
	f := levelForce()
	const sigX, sigY = 0.01, 0.04
	for k := 0; k < 2500; k++ {
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		zx += sigX * rng.NormFloat64()
		zy += sigY * rng.NormFloat64()
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	sx, sy := e.RHat()
	if math.Abs(sx-sigX)/sigX > 0.3 || math.Abs(sy-sigY)/sigY > 0.3 {
		t.Errorf("per-axis σ̂ = (%v, %v), want near (%v, %v)", sx, sy, sigX, sigY)
	}
	if sy < 2*sx {
		t.Errorf("axis separation lost: σ̂y %v not ≫ σ̂x %v", sy, sx)
	}
}

// TestAdaptiveRHeldSamplesDoNotFeed: a held sample's inflated R is a
// transport artefact, so hold runs must leave the matcher untouched.
func TestAdaptiveRHeldSamplesDoNotFeed(t *testing.T) {
	e := New(adaptiveConfig())
	f := levelForce()
	mis := geom.EulerDeg(1, 1, 0)
	zx, zy := accReading(mis, f, 0, 0, 0, 0)
	for k := 0; k < 500; k++ {
		if _, err := e.StepDegraded(0.01, f, geom.Vec3{}, zx, zy, QualityHeld); err != nil {
			t.Fatal(err)
		}
	}
	if e.adN != 0 {
		t.Errorf("held samples fed the matcher window (adN = %d)", e.adN)
	}
}

// TestAdaptiveRDefaults pins the resolved() defaults against MeasNoise.
func TestAdaptiveRDefaults(t *testing.T) {
	a := AdaptiveConfig{Enabled: true}.resolved(0.01)
	if a.Window != 200 {
		t.Errorf("Window = %d, want 200", a.Window)
	}
	if math.Abs(a.FloorSigma-0.002) > 1e-15 {
		t.Errorf("FloorSigma = %v, want 0.002", a.FloorSigma)
	}
	if math.Abs(a.CeilSigma-0.1) > 1e-15 {
		t.Errorf("CeilSigma = %v, want 0.1", a.CeilSigma)
	}
	if a.Forget != 0.9 {
		t.Errorf("Forget = %v, want 0.9", a.Forget)
	}
	if d := (AdaptiveConfig{}).resolved(0.01); d.Enabled || d.Window != 0 {
		t.Errorf("disabled config resolved to %+v, want zero value", d)
	}
}

// TestAdaptiveRInvalidBandPanics: a floor at or above the ceiling is a
// construction error.
func TestAdaptiveRInvalidBandPanics(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.AdaptiveR.FloorSigma = 0.05
	cfg.AdaptiveR.CeilSigma = 0.05
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted FloorSigma == CeilSigma")
		}
	}()
	New(cfg)
}

// TestMultiAdaptiveRPerSensor: in the multi-sensor estimator each
// sensor carries its own matcher, so a noisy sensor is de-weighted
// without dragging a quiet one's R̂ up.
func TestMultiAdaptiveRPerSensor(t *testing.T) {
	cfg := adaptiveConfig()
	m := NewMulti(2, cfg)
	rng := rand.New(rand.NewSource(47))
	f := levelForce()
	mis := []geom.Euler{geom.EulerDeg(1, -1, 0), geom.EulerDeg(-0.5, 2, 0)}
	const sigQuiet, sigNoisy = 0.01, 0.04
	readings := make([]Reading, 2)
	for k := 0; k < 2500; k++ {
		for s := 0; s < 2; s++ {
			zx, zy := accReading(mis[s], f, 0, 0, 0, 0)
			sig := sigQuiet
			if s == 1 {
				sig = sigNoisy
			}
			readings[s] = Reading{FX: zx + sig*rng.NormFloat64(), FY: zy + sig*rng.NormFloat64(), Valid: true}
		}
		if err := m.Step(0.01, f, readings); err != nil {
			t.Fatal(err)
		}
	}
	qx, qy := m.RHat(0)
	nx, ny := m.RHat(1)
	for _, s := range []float64{qx, qy} {
		if math.Abs(s-sigQuiet)/sigQuiet > 0.3 {
			t.Errorf("quiet sensor σ̂ = %v, want near %v", s, sigQuiet)
		}
	}
	for _, s := range []float64{nx, ny} {
		if math.Abs(s-sigNoisy)/sigNoisy > 0.3 {
			t.Errorf("noisy sensor σ̂ = %v, want near %v", s, sigNoisy)
		}
	}
}

// TestAdaptiveRBeatsFixedUnderDrift is the head-to-head the AdaptiveSweep
// experiment reports: after an unmodelled ×5 noise step, the adaptive
// filter's attitude error stays below the fixed-R filter's (which keeps
// over-trusting measurements five times noisier than modelled).
func TestAdaptiveRBeatsFixedUnderDrift(t *testing.T) {
	run := func(adaptive bool) float64 {
		cfg := anglesOnlyConfig()
		cfg.GateSigma = 0
		cfg.AdaptiveR.Enabled = adaptive
		e := New(cfg)
		rng := rand.New(rand.NewSource(48)) // same noise draw for both
		mis := geom.EulerDeg(1.5, -2, 0)
		f := levelForce()
		sumSq, tail := 0.0, 0
		for k := 0; k < 6000; k++ {
			sig := 0.01
			if k >= 2000 {
				sig = 0.05
			}
			zx, zy := accReading(mis, f, 0, 0, 0, 0)
			zx += sig * rng.NormFloat64()
			zy += sig * rng.NormFloat64()
			if _, err := e.Step(0.01, f, zx, zy); err != nil {
				t.Fatal(err)
			}
			if k >= 4000 {
				got := e.Misalignment()
				dr := got.Roll - mis.Roll
				dp := got.Pitch - mis.Pitch
				sumSq += dr*dr + dp*dp
				tail++
			}
		}
		return math.Sqrt(sumSq / float64(tail))
	}
	fixed := run(false)
	adapt := run(true)
	if adapt >= fixed {
		t.Errorf("adaptive tail RMSE %v not below fixed-R %v under ×5 noise drift", adapt, fixed)
	}
}
