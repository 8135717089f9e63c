package core

import (
	"testing"

	"boresight/internal/geom"
)

// TestEstimatorStepAllocFree pins the estimator's zero-allocation
// contract: after construction and a warm-up, StepFull must not touch
// the heap — with every optional feature enabled, since each adds
// hot-loop work.
func TestEstimatorStepAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EstimateLever = true
	cfg.AdaptiveR.Enabled = true
	cfg.BumpRecovery = true
	e := New(cfg)

	f := geom.Vec3{0.3, -0.2, -9.81}
	w := geom.Vec3{0.05, -0.02, 0.3}
	const dt = 0.01
	accX, accY := 0.31, -0.18

	// Warm-up: settle the low-pass.
	for i := 0; i < 10; i++ {
		if _, err := e.StepFull(dt, f, w, accX, accY); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(500, func() {
		if _, err := e.StepFull(dt, f, w, accX, accY); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StepFull: %v allocs/run, want 0", allocs)
	}

	// The degraded paths share the same scratch: held updates and
	// dropout epochs must be just as allocation-free, since they run in
	// the same hard-real-time loop while the link is misbehaving.
	allocs = testing.AllocsPerRun(500, func() {
		if _, err := e.StepDegraded(dt, f, w, accX, accY, QualityHeld); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StepDegraded(held): %v allocs/run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(500, func() {
		if _, err := e.StepDegraded(dt, f, w, accX, accY, QualityDropout); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StepDegraded(dropout): %v allocs/run, want 0", allocs)
	}
}

// TestAdaptiveStepAllocFree pins the adaptive tentpole's hot-path
// contract: with the innovation-matched R-hat ring AND the augmented
// IMU bias/scale self-calibration states active, the per-epoch paths —
// fresh, held and dropout — still never touch the heap. The rings and
// the re-dimensioned scratch are sized at construction (or at
// Reconfigure, the rare-event path that is allowed to allocate).
func TestAdaptiveStepAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EstimateLever = true
	cfg.EstimateIMUBias = true
	cfg.EstimateIMUScale = true
	cfg.AdaptiveR.Enabled = true
	e := New(cfg)

	f := geom.Vec3{0.3, -0.2, -9.81}
	w := geom.Vec3{0.05, -0.02, 0.3}
	const dt = 0.01
	accX, accY := 0.31, -0.18

	for i := 0; i < 10; i++ {
		if _, err := e.StepFull(dt, f, w, accX, accY); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		step func() error
	}{
		{"StepFull", func() error { _, err := e.StepFull(dt, f, w, accX, accY); return err }},
		{"StepDegraded(held)", func() error {
			_, err := e.StepDegraded(dt, f, w, accX, accY, QualityHeld)
			return err
		}},
		{"StepDegraded(dropout)", func() error {
			_, err := e.StepDegraded(dt, f, w, accX, accY, QualityDropout)
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(500, func() {
			if err := tc.step(); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s with adaptive R + self-cal: %v allocs/run, want 0", tc.name, allocs)
		}
	}
	if e.adN == 0 {
		t.Fatal("adaptive ring never fed; the guard exercised the wrong path")
	}
}

// TestMultiAdaptiveStepAllocFree extends the multi-sensor guard to the
// per-block R-hat rings: the all-sensors-valid fast path must stay
// allocation-free with adaptation on.
func TestMultiAdaptiveStepAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveR.Enabled = true
	m := NewMulti(3, cfg)
	f := geom.Vec3{0.3, -0.2, -9.81}
	readings := []Reading{
		{FX: 0.31, FY: -0.18, Valid: true},
		{FX: 0.28, FY: -0.21, Valid: true},
		{FX: 0.33, FY: -0.19, Valid: true},
	}
	const dt = 0.01
	for i := 0; i < 10; i++ {
		if err := m.Step(dt, f, readings); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := m.Step(dt, f, readings); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("multi Step with adaptive R: %v allocs/run, want 0", allocs)
	}
}

// TestMultiStepAllocFree pins the multi-sensor Step's zero-allocation
// contract: with every sensor reporting, with one dropped, and after
// the dropout, Step allocates nothing.
func TestMultiStepAllocFree(t *testing.T) {
	m := NewMulti(3, DefaultConfig())
	f := geom.Vec3{0.3, -0.2, -9.81}
	readings := []Reading{
		{FX: 0.31, FY: -0.18, Valid: true},
		{FX: 0.28, FY: -0.21, Valid: true},
		{FX: 0.33, FY: -0.19, Valid: true},
	}
	const dt = 0.01
	for i := 0; i < 10; i++ {
		if err := m.Step(dt, f, readings); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(500, func() {
		if err := m.Step(dt, f, readings); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step (all sensors valid): %v allocs/run, want 0", allocs)
	}

	dropped := []Reading{readings[0], {Valid: false}, readings[2]}
	allocs = testing.AllocsPerRun(500, func() {
		if err := m.Step(dt, f, dropped); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step (one sensor dropped): %v allocs/run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(500, func() {
		if err := m.Step(dt, f, readings); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step after dropout recovery: %v allocs/run, want 0", allocs)
	}
}
