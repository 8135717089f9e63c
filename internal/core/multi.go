package core

import (
	"fmt"
	"math"

	"boresight/internal/geom"
)

// MultiEstimator implements the paper's proposed extension (Section
// 12): "the fusion engine … can readily be extended to fuse data from
// multiple sensors together (eg. lidar and video) to provide low-cost
// situational awareness" — the self-aligning, self-referencing
// multi-sensor case. Each instrumented sensor carries its own two-axis
// accelerometer and is aligned against the shared IMU specific force by
// an Estimator of its own; the MultiEstimator steps them together and
// exposes the *relative* alignment between any sensor pair (what fusing
// lidar returns with camera pixels actually requires).
//
// A joint filter over every sensor's states would carry nothing more:
// the priors, process noise and measurement noise are diagonal and each
// sensor's measurement touches only its own states, so the joint
// covariance stays block-diagonal and a stacked update is the sensors'
// two-axis updates side by side. Each sensor therefore runs exactly what
// a single Estimator runs on its readings through StepDegraded:
//   - an invalid reading takes the dropout path, the time update only,
//     so the sensor's Jacobian low-pass waits for its next valid sample;
//   - every Config field applies per sensor as it does to an Estimator:
//     the innovation gate (GateSigma), BumpRecovery and AdaptiveR, and
//     the lever-arm and IMU self-calibration blocks
//     (Step takes no gyro input, so the lever arm sees ω = 0);
//   - a dropout ends that sensor's hold run, also on an epoch where
//     every sensor drops out.
type MultiEstimator struct {
	sensors       []*Estimator
	steps         int
	dropoutEpochs int
}

// NewMulti builds an estimator for n sensors, each modelled with the
// same per-sensor configuration.
func NewMulti(n int, cfg Config) *MultiEstimator {
	if n < 1 {
		panic("core: NewMulti needs at least one sensor")
	}
	m := &MultiEstimator{sensors: make([]*Estimator, n)}
	for s := range m.sensors {
		m.sensors[s] = New(cfg)
	}
	return m
}

// Sensors returns the number of sensors.
func (m *MultiEstimator) Sensors() int { return len(m.sensors) }

// Reading is one sensor's ACC sample for a Step; Valid false marks a
// dropout (that sensor runs the time update only). Held marks a
// sample-and-hold replay of the last good value: the sensor still
// updates, but with its measurement noise inflated by the length of
// the hold run (Config.HeldInflation), so a briefly silent sensor
// degrades gracefully instead of being trusted at full confidence or
// dropped outright.
type Reading struct {
	FX, FY float64
	Valid  bool
	Held   bool
}

// Step processes one synchronised epoch: the shared IMU specific force
// and one reading per sensor, each fed to that sensor's Estimator.
func (m *MultiEstimator) Step(dt float64, fBody geom.Vec3, readings []Reading) error {
	if dt <= 0 {
		return fmt.Errorf("core: non-positive dt %v", dt)
	}
	if len(readings) != len(m.sensors) {
		return fmt.Errorf("core: %d readings for %d sensors", len(readings), len(m.sensors))
	}
	m.steps++
	valid := false
	for s, r := range readings {
		q := QualityFresh
		switch {
		case !r.Valid:
			q = QualityDropout
		case r.Held:
			q = QualityHeld
		}
		valid = valid || r.Valid
		if _, err := m.sensors[s].StepDegraded(dt, fBody, geom.Vec3{}, r.FX, r.FY, q); err != nil {
			return err
		}
	}
	if !valid {
		m.dropoutEpochs++
	}
	return nil
}

// Misalignment returns sensor i's estimated misalignment relative to
// the IMU/vehicle.
func (m *MultiEstimator) Misalignment(i int) geom.Euler { return m.sensors[i].Misalignment() }

// AngleSigmas returns the 1σ uncertainties of sensor i's angles.
func (m *MultiEstimator) AngleSigmas(i int) geom.Vec3 { return m.sensors[i].AngleSigmas() }

// Relative returns the rotation taking sensor j's frame to sensor i's
// frame — the cross-sensor alignment needed to overlay their data (e.g.
// lidar returns onto camera pixels) — with its 1σ per axis. The two
// sensors' filters share no state, so their angle errors are
// independent and the variances add: the combined σ is exact to first
// order, not a bound.
func (m *MultiEstimator) Relative(i, j int) (geom.Euler, geom.Vec3) {
	rel := m.sensors[i].att.Conj().Mul(m.sensors[j].att)
	si := m.AngleSigmas(i)
	sj := m.AngleSigmas(j)
	var sig geom.Vec3
	for k := 0; k < 3; k++ {
		sig[k] = math.Sqrt(float64(si[k]*si[k]) + float64(sj[k]*sj[k]))
	}
	return rel.Euler(), sig
}

// Steps returns the number of epochs processed.
func (m *MultiEstimator) Steps() int { return m.steps }

// DropoutEpochs returns the number of epochs in which no sensor had a
// valid reading (time update only).
func (m *MultiEstimator) DropoutEpochs() int { return m.dropoutEpochs }

// HeldUpdates returns the number of held (noise-inflated) sensor
// updates processed across all sensors and epochs.
func (m *MultiEstimator) HeldUpdates() int {
	n := 0
	for _, e := range m.sensors {
		n += e.HeldUpdates()
	}
	return n
}

// RHat returns sensor i's current per-axis measurement-noise estimate
// σ̂ (see Estimator.RHat).
func (m *MultiEstimator) RHat(i int) (sx, sy float64) { return m.sensors[i].RHat() }
