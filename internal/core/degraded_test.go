package core

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/geom"
)

// TestStepDegradedFreshMatchesStepFull pins that the fresh-quality path
// is bit-identical to StepFull — callers can switch over without
// changing any existing behaviour.
func TestStepDegradedFreshMatchesStepFull(t *testing.T) {
	mis := geom.EulerDeg(1, -1.5, 0)
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	f := levelForce()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		zx, zy := accReading(mis, f, 0.01, -0.02, 0, 0)
		zx += rng.NormFloat64() * 0.01
		zy += rng.NormFloat64() * 0.01
		if _, err := a.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
		if _, err := b.StepDegraded(0.01, f, geom.Vec3{}, zx, zy, QualityFresh); err != nil {
			t.Fatal(err)
		}
	}
	if a.Misalignment() != b.Misalignment() {
		t.Fatalf("fresh StepDegraded diverged: %+v vs %+v", a.Misalignment(), b.Misalignment())
	}
	if a.AngleSigmas() != b.AngleSigmas() {
		t.Fatal("fresh StepDegraded covariance diverged")
	}
	if b.HeldUpdates() != 0 || b.Dropouts() != 0 {
		t.Fatalf("fresh-only run recorded held=%d dropouts=%d", b.HeldUpdates(), b.Dropouts())
	}
}

// TestStepDegradedDropoutIsPredictOnly pins the dropout-epoch contract:
// the state estimate does not move, the covariance does not shrink, and
// the epoch is counted as a dropout rather than a measurement update.
func TestStepDegradedDropoutIsPredictOnly(t *testing.T) {
	mis := geom.EulerDeg(2, -1, 0)
	e := New(DefaultConfig())
	f := levelForce()
	for i := 0; i < 1000; i++ {
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		if _, err := e.StepDegraded(0.01, f, geom.Vec3{}, zx, zy, QualityFresh); err != nil {
			t.Fatal(err)
		}
	}
	misBefore := e.Misalignment()
	sigBefore := e.AngleSigmas()
	stepsBefore := e.Steps()
	for i := 0; i < 500; i++ {
		inn, err := e.StepDegraded(0.01, f, geom.Vec3{}, 99, -99, QualityDropout)
		if err != nil {
			t.Fatal(err)
		}
		if inn.Residual != nil {
			t.Fatal("dropout epoch produced an innovation")
		}
	}
	if e.Dropouts() != 500 {
		t.Fatalf("dropouts = %d, want 500", e.Dropouts())
	}
	if e.Steps() != stepsBefore {
		t.Fatal("dropout epochs counted as measurement updates")
	}
	if e.Misalignment() != misBefore {
		t.Fatal("dropout epoch moved the state estimate")
	}
	sigAfter := e.AngleSigmas()
	for k := 0; k < 3; k++ {
		if sigAfter[k] < sigBefore[k] {
			t.Fatalf("axis %d sigma shrank across dropout: %v -> %v", k, sigBefore[k], sigAfter[k])
		}
	}
	if _, err := e.StepDegraded(0, f, geom.Vec3{}, 0, 0, QualityDropout); err == nil {
		t.Fatal("dropout epoch accepted non-positive dt")
	}
}

// TestStepDegradedHeldInflatesNoise pins the de-weighting policy: a long
// run of held samples (the last good value replayed while the true input
// keeps changing) must pull the state far less than the same values
// trusted as fresh, and the hold run must reset on the next fresh
// sample.
func TestStepDegradedHeldInflatesNoise(t *testing.T) {
	mis := geom.EulerDeg(1.5, -2, 0)
	cfg := DefaultConfig()
	cfg.GateSigma = 0 // isolate the inflation effect from gating
	held := New(cfg)
	fresh := New(cfg)
	f := levelForce()
	converge := func(e *Estimator) {
		for i := 0; i < 2000; i++ {
			zx, zy := accReading(mis, f, 0, 0, 0, 0)
			if _, err := e.StepDegraded(0.01, f, geom.Vec3{}, zx, zy, QualityFresh); err != nil {
				t.Fatal(err)
			}
		}
	}
	converge(held)
	converge(fresh)
	// The platform now tilts, but the link is down: both filters keep
	// receiving the stale level-pose reading. The held-aware filter
	// de-weights it; the naive filter ingests it at full confidence.
	fTilt := tiltForce(geom.EulerDeg(0, 10, 0))
	zxStale, zyStale := accReading(mis, f, 0, 0, 0, 0)
	for i := 0; i < 30; i++ {
		if _, err := held.StepDegraded(0.01, fTilt, geom.Vec3{}, zxStale, zyStale, QualityHeld); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.StepDegraded(0.01, fTilt, geom.Vec3{}, zxStale, zyStale, QualityFresh); err != nil {
			t.Fatal(err)
		}
	}
	if held.HeldUpdates() != 30 || held.HeldRun() != 30 {
		t.Fatalf("held bookkeeping: updates=%d run=%d", held.HeldUpdates(), held.HeldRun())
	}
	errOf := func(e *Estimator) float64 {
		g := e.Misalignment()
		return math.Hypot(g.Roll-mis.Roll, g.Pitch-mis.Pitch)
	}
	if errOf(held) >= errOf(fresh) {
		t.Fatalf("held inflation did not de-weight stale samples: held err %v°, fresh err %v°",
			geom.Rad2Deg(errOf(held)), geom.Rad2Deg(errOf(fresh)))
	}
	// A fresh sample ends the hold run.
	zx, zy := accReading(mis, fTilt, 0, 0, 0, 0)
	if _, err := held.StepDegraded(0.01, fTilt, geom.Vec3{}, zx, zy, QualityFresh); err != nil {
		t.Fatal(err)
	}
	if held.HeldRun() != 0 {
		t.Fatalf("fresh sample left held run at %d", held.HeldRun())
	}
}

// TestMultiHeldAndDropoutTelemetry pins the MultiEstimator mirror of the
// degraded-stream policy: held rows inflate per-sensor, full dropout
// epochs are counted, and a held sensor's uncertainty stays above the
// uncertainty it would have claimed had the replays been trusted fresh.
func TestMultiHeldAndDropoutTelemetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EstimateBias = false
	cfg.EstimateScale = false
	misA := geom.EulerDeg(1, -1, 0)
	misB := geom.EulerDeg(-2, 0.5, 0)
	mHeld := NewMulti(2, cfg)
	mFresh := NewMulti(2, cfg)
	f := levelForce()
	step := func(m *MultiEstimator, bHeld bool) {
		zax, zay := accReading(misA, f, 0, 0, 0, 0)
		zbx, zby := accReading(misB, f, 0, 0, 0, 0)
		if err := m.Step(0.01, f, []Reading{
			{FX: zax, FY: zay, Valid: true},
			{FX: zbx, FY: zby, Valid: true, Held: bHeld},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		step(mHeld, false)
		step(mFresh, false)
	}
	// Sensor B's link goes down for a stretch: held rows for mHeld,
	// (incorrectly) fresh-labelled replays for mFresh.
	for i := 0; i < 200; i++ {
		step(mHeld, true)
		step(mFresh, false)
	}
	if mHeld.HeldUpdates() != 200 {
		t.Fatalf("held updates = %d, want 200", mHeld.HeldUpdates())
	}
	sH := mHeld.AngleSigmas(1)
	sF := mFresh.AngleSigmas(1)
	if sH[0] <= sF[0] || sH[1] <= sF[1] {
		t.Fatalf("held sensor's sigma not larger than fresh-trusted: %v vs %v", sH, sF)
	}
	// Full dropout epochs only bump the epoch counter.
	before := mHeld.Steps()
	for i := 0; i < 10; i++ {
		if err := mHeld.Step(0.01, f, []Reading{{}, {}}); err != nil {
			t.Fatal(err)
		}
	}
	if mHeld.DropoutEpochs() != 10 {
		t.Fatalf("dropout epochs = %d, want 10", mHeld.DropoutEpochs())
	}
	if mHeld.Steps() != before+10 {
		t.Fatal("dropout epochs not counted as epochs")
	}
}

// TestChi2Helper pins the kalman.Innovation.Chi2 convention used by the
// gate: the chi-square statistic is the squared Mahalanobis distance.
func TestChi2Helper(t *testing.T) {
	e := New(DefaultConfig())
	f := levelForce()
	inn, err := e.Step(0.01, f, f[0], f[1])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inn.Chi2(), inn.Mahalanobis*inn.Mahalanobis; got != want {
		t.Fatalf("Chi2 = %v, want %v", got, want)
	}
}
