package imu

import (
	"math"
	"math/rand"

	"boresight/internal/geom"
	"boresight/internal/rng"
	"boresight/internal/traj"
)

// The ADXL202 outputs acceleration as a PWM duty cycle:
//
//	duty = 0.5 + a[g] * 0.125
//
// i.e. 12.5% duty change per g, 50% at 0 g. A host measures the high
// time T1 against the period T2 with a counter; the counter's clock sets
// the quantisation. These constants and the codec below reproduce that
// digitisation path (ADXL202 datasheet, Rev. C).
const (
	// DutyPerG is the duty-cycle change per g of acceleration.
	DutyPerG = 0.125
	// DutyZero is the duty cycle at zero acceleration.
	DutyZero = 0.5
	// GravityPerG converts g units to m/s².
	GravityPerG = 9.80665
)

// DutyCycleCodec models the ADXL202 PWM output and a counter-based
// reader: acceleration → duty cycle → integer counts → acceleration.
type DutyCycleCodec struct {
	// T2Counts is the number of counter ticks in one PWM period
	// (period T2 divided by the counter clock). Larger = finer
	// resolution. 1000 counts ≈ 10-bit resolution.
	T2Counts int
}

// Encode converts an acceleration (m/s²) to the integer high-time count
// a host timer would capture. Accelerations beyond ±4 g saturate the
// duty cycle at the device limits.
func (c DutyCycleCodec) Encode(accel float64) int {
	g := accel / GravityPerG
	duty := DutyZero + float64(g*DutyPerG)
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	return int(math.Round(duty * float64(c.T2Counts)))
}

// Decode converts a captured high-time count back to acceleration (m/s²).
func (c DutyCycleCodec) Decode(t1 int) float64 {
	duty := float64(t1) / float64(c.T2Counts)
	return (duty - DutyZero) / DutyPerG * GravityPerG
}

// Resolution returns the acceleration quantisation step (m/s² per count).
func (c DutyCycleCodec) Resolution() float64 {
	return GravityPerG / DutyPerG / float64(c.T2Counts)
}

// ACCConfig parameterises the two-axis accelerometer on the boresighted
// sensor.
type ACCConfig struct {
	Axes [2]AxisError // x', y' axes (m/s²)
	// Misalignment is the TRUE boresight misalignment of the sensor
	// relative to the vehicle body — the quantity the fusion filter
	// must estimate. It rotates body vectors into the sensor frame.
	Misalignment geom.Euler
	// LeverArm is the sensor's mounting position relative to the IMU
	// in body axes (metres). Under rotation the two locations feel
	// different accelerations — the centripetal term ω×(ω×r) — which
	// the fusion filter must model or estimate to stay unbiased on a
	// turning vehicle.
	LeverArm geom.Vec3
	// Codec digitises the outputs; a zero T2Counts bypasses the PWM
	// path (ideal analogue read).
	Codec DutyCycleCodec
	// SampleRate is the output rate in Hz.
	SampleRate float64
}

// DefaultACCConfig returns ADXL202-grade errors: ±2 g range, bias a few
// mg after calibration, 0.5% scale tolerance, ~4 mg noise per sample.
func DefaultACCConfig(misalignment geom.Euler) ACCConfig {
	return ACCConfig{
		Axes: [2]AxisError{
			{Bias: 0.03, Scale: 0.004, NoiseStd: 0.006},
			{Bias: -0.02, Scale: -0.003, NoiseStd: 0.006},
		},
		Misalignment: misalignment,
		Codec:        DutyCycleCodec{T2Counts: 32768},
		SampleRate:   100,
	}
}

// ACCSample is one two-axis accelerometer output record.
type ACCSample struct {
	T  float64 // sample time (s)
	FX float64 // specific force along sensor x' (m/s²)
	FY float64 // specific force along sensor y' (m/s²)
}

// ACC simulates the sensor-mounted two-axis accelerometer.
type ACC struct {
	cfg    ACCConfig
	body2s geom.DCM // body -> sensor axes
	rng    *rand.Rand
}

// NewACC builds an ACC with the given configuration and noise seed.
func NewACC(cfg ACCConfig, seed int64) *ACC {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 100
	}
	return &ACC{
		cfg:    cfg,
		body2s: cfg.Misalignment.DCM().T(),
		rng:    rand.New(rng.NewSource(seed)),
	}
}

// Reset re-initialises the ACC in place for a new run, reproducing
// exactly the instrument NewACC(cfg, seed) builds while reusing the
// existing RNG allocation. It also undoes any mid-run mutation a
// previous scenario applied (SetMisalignment bumps, ScaleNoise drifts),
// because the full configuration is reinstalled.
func (a *ACC) Reset(cfg ACCConfig, seed int64) {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 100
	}
	a.cfg = cfg
	a.body2s = cfg.Misalignment.DCM().T()
	a.rng.Seed(seed)
}

// SampleRate returns the configured output rate in Hz.
func (a *ACC) SampleRate() float64 { return a.cfg.SampleRate }

// TrueMisalignment returns the configured ground-truth misalignment.
func (a *ACC) TrueMisalignment() geom.Euler { return a.cfg.Misalignment }

// SetMisalignment changes the ground-truth misalignment mid-run — the
// "car park bump" of the paper's Section 2, after which the system must
// continuously realign the sensor.
func (a *ACC) SetMisalignment(mis geom.Euler) {
	a.cfg.Misalignment = mis
	a.body2s = mis.DCM().T()
}

// ScaleNoise multiplies both axes' per-sample noise σ by factor — the
// mid-run noise regime change (vibration onset, temperature ramp) the
// adaptive measurement-noise estimator must track. Panics on a
// non-positive factor.
func (a *ACC) ScaleNoise(factor float64) {
	if factor <= 0 {
		panic("imu: noise scale factor must be positive")
	}
	a.cfg.Axes[0].NoiseStd *= factor
	a.cfg.Axes[1].NoiseStd *= factor
}

// Sample produces one measurement from the truth state plus body-axis
// vibration. The vibration enters in body axes (same mechanical input as
// the IMU sees) and is rotated into the sensor frame by the true
// misalignment, exactly as the physical common-acceleration observable
// works. A configured lever arm adds the centripetal difference
// ω×(ω×r) between the sensor's mounting point and the IMU's.
func (a *ACC) Sample(st traj.State, vib [3]float64) ACCSample {
	return a.SampleBody(st.T, st.SpecificForce().Add(geom.Vec3(vib)), st.Rate)
}

// SampleBody produces one measurement at time t from the true body
// specific force f at the IMU (vibration included) and body rate w;
// the lever-arm term is added here, as in Sample.
func (a *ACC) SampleBody(t float64, f, w geom.Vec3) ACCSample {
	fBody := f
	if a.cfg.LeverArm != (geom.Vec3{}) {
		fBody = fBody.Add(w.Cross(w.Cross(a.cfg.LeverArm)))
	}
	fSens := a.body2s.Apply(fBody)
	out := ACCSample{T: t}
	fx := a.cfg.Axes[0].Apply(fSens[0], a.rng)
	fy := a.cfg.Axes[1].Apply(fSens[1], a.rng)
	if a.cfg.Codec.T2Counts > 0 {
		fx = a.cfg.Codec.Decode(a.cfg.Codec.Encode(fx))
		fy = a.cfg.Codec.Decode(a.cfg.Codec.Encode(fy))
	}
	out.FX, out.FY = fx, fy
	return out
}
