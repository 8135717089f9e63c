// Package imu models the paper's inertial sensors: the BAE Systems 6-DOF
// MEMS inertial measurement unit ("DMU": three vibrating-ring gyroscopes
// and three capacitive accelerometers, Section 4) fixed to the vehicle,
// and the Analog Devices ADXL202 two-axis accelerometer ("ACC") fixed to
// the sensor being boresighted.
//
// Each instrument applies a per-axis error model (bias, scale factor,
// white noise, quantisation) to the ground truth from package traj. The
// ACC additionally passes its outputs through the ADXL202's duty-cycle
// (PWM) encoding, reproducing the real part's digitisation path. All
// randomness is seeded, so experiments replay exactly.
package imu

import (
	"math"
	"math/rand"

	"boresight/internal/geom"
	"boresight/internal/rng"
	"boresight/internal/traj"
)

// AxisError is the error model for a single instrument axis.
type AxisError struct {
	// Bias is a constant offset in output units (m/s² or rad/s).
	Bias float64
	// Scale is the fractional scale-factor error (0.001 = 0.1%).
	Scale float64
	// NoiseStd is the standard deviation of per-sample white noise.
	NoiseStd float64
	// Quant is the quantisation step of the digitised output;
	// zero disables quantisation.
	Quant float64
}

// Apply corrupts a true value with this axis's errors, drawing noise
// from rng.
func (e AxisError) Apply(truth float64, rng *rand.Rand) float64 {
	v := float64(truth*(1+e.Scale)) + e.Bias
	if e.NoiseStd > 0 {
		v += float64(rng.NormFloat64() * e.NoiseStd)
	}
	if e.Quant > 0 {
		v = math.Round(v/e.Quant) * e.Quant
	}
	return v
}

// DMUConfig parameterises the vehicle-fixed 6-DOF IMU.
type DMUConfig struct {
	Gyro  [3]AxisError // x, y, z rate axes (rad/s)
	Accel [3]AxisError // x, y, z accelerometer axes (m/s²)
	// Mount is the small residual misalignment of the IMU triad
	// relative to the vehicle body axes (the IMU defines the reference
	// frame, so this is normally zero in experiments; non-zero values
	// support sensitivity studies).
	Mount geom.Euler
	// SampleRate is the output data rate in Hz.
	SampleRate float64
}

// DefaultDMUConfig returns datasheet-grade numbers for an automotive
// MEMS IMU of the paper's era (BAE SiIMU-class): gyro bias ~0.01 °/s,
// accel bias ~2 mg, accel noise ~0.5 mg per sample at 100 Hz.
func DefaultDMUConfig() DMUConfig {
	gyroBias := geom.Deg2Rad(0.01)
	return DMUConfig{
		Gyro: [3]AxisError{
			{Bias: gyroBias, Scale: 0.001, NoiseStd: geom.Deg2Rad(0.02)},
			{Bias: -gyroBias / 2, Scale: -0.0008, NoiseStd: geom.Deg2Rad(0.02)},
			{Bias: gyroBias / 3, Scale: 0.0005, NoiseStd: geom.Deg2Rad(0.02)},
		},
		Accel: [3]AxisError{
			{Bias: 0.02, Scale: 0.0015, NoiseStd: 0.005, Quant: 0.0005},
			{Bias: -0.015, Scale: -0.001, NoiseStd: 0.005, Quant: 0.0005},
			{Bias: 0.01, Scale: 0.0012, NoiseStd: 0.005, Quant: 0.0005},
		},
		SampleRate: 100,
	}
}

// DMUSample is one IMU output record.
type DMUSample struct {
	T     float64   // sample time (s)
	Rate  geom.Vec3 // angular rate, body axes (rad/s)
	Accel geom.Vec3 // specific force, body axes (m/s²)
}

// DMU simulates the vehicle-fixed IMU.
type DMU struct {
	cfg   DMUConfig
	mount geom.DCM // body -> IMU axes, always cfg.Mount.DCM().T()
	rng   *rand.Rand
}

// NewDMU builds a DMU with the given configuration and noise seed.
func NewDMU(cfg DMUConfig, seed int64) *DMU {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 100
	}
	return &DMU{
		cfg:   cfg,
		mount: cfg.Mount.DCM().T(),
		rng:   rand.New(rng.NewSource(seed)),
	}
}

// Reset re-initialises the DMU in place for a new run, reproducing
// exactly the instrument NewDMU(cfg, seed) builds — same defaults, same
// noise sequence — while reusing the existing RNG allocation. Pooled
// serving runners reset their sensors once per scenario, nearly always
// to the same mount, so the mount rotation is kept when the new angles
// have the same bits as the installed ones.
func (d *DMU) Reset(cfg DMUConfig, seed int64) {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 100
	}
	if cfg.Mount.Bits() != d.cfg.Mount.Bits() {
		d.mount = cfg.Mount.DCM().T()
	}
	d.cfg = cfg
	d.rng.Seed(seed)
}

// SampleRate returns the configured output rate in Hz.
func (d *DMU) SampleRate() float64 { return d.cfg.SampleRate }

// Sample produces one measurement from the truth state plus body-axis
// vibration acceleration.
func (d *DMU) Sample(st traj.State, vib [3]float64) DMUSample {
	return d.SampleBody(st.T, st.SpecificForce().Add(geom.Vec3(vib)), st.Rate)
}

// SampleBody produces one measurement at time t from the true body
// specific force f (vibration included) and body rate w. Callers that
// feed both instruments the same truth compute f once.
func (d *DMU) SampleBody(t float64, f, w geom.Vec3) DMUSample {
	fTrue := d.mount.Apply(f)
	wTrue := d.mount.Apply(w)
	var out DMUSample
	out.T = t
	for i := 0; i < 3; i++ {
		out.Rate[i] = d.cfg.Gyro[i].Apply(wTrue[i], d.rng)
		out.Accel[i] = d.cfg.Accel[i].Apply(fTrue[i], d.rng)
	}
	return out
}
