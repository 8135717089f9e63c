// Package odo implements the paper's proposed "fusion of data from the
// vehicle into the system for additional improvements" (Section 12):
// the wheel-speed feed every car already carries (ABS tone-ring pulses)
// becomes an independent longitudinal reference that observes the IMU's
// own accelerometer bias while driving — the error source the
// accelerometer-only boresight filter cannot separate without a
// calibration stop.
package odo

import (
	"math"
	"math/rand"

	"boresight/internal/rng"
)

// WheelSensor models an ABS wheel-speed pickup: an integer pulse count
// per sample interval from a tone ring, with ±1-count quantisation and
// occasional jitter.
type WheelSensor struct {
	// PulsesPerMeter is the tone-ring resolution referred to the road
	// (teeth per wheel revolution / rolling circumference). A typical
	// 48-tooth ring on a 1.95 m tyre gives ≈ 24.6.
	PulsesPerMeter float64
	// JitterProb is the probability a sample gains or loses one extra
	// edge (sensor noise near a tooth boundary).
	JitterProb float64

	rng   *rand.Rand
	accum float64 // fractional pulses carried between samples
}

// NewWheelSensor builds a sensor with the given resolution and seed.
func NewWheelSensor(pulsesPerMeter float64, seed int64) *WheelSensor {
	if pulsesPerMeter <= 0 {
		pulsesPerMeter = 24.6
	}
	return &WheelSensor{
		PulsesPerMeter: pulsesPerMeter,
		JitterProb:     0.05,
		rng:            rand.New(rng.NewSource(seed)),
	}
}

// Reset re-initialises the sensor in place for a new run, reproducing
// exactly the sensor NewWheelSensor(pulsesPerMeter, seed) builds while
// reusing the existing RNG allocation.
func (w *WheelSensor) Reset(pulsesPerMeter float64, seed int64) {
	if pulsesPerMeter <= 0 {
		pulsesPerMeter = 24.6
	}
	w.PulsesPerMeter = pulsesPerMeter
	w.JitterProb = 0.05
	w.accum = 0
	w.rng.Seed(seed)
}

// Sample advances dt seconds at the given true speed (m/s) and returns
// the integer pulse count delivered for the interval.
func (w *WheelSensor) Sample(speed, dt float64) int {
	w.accum += math.Max(0, speed) * dt * w.PulsesPerMeter
	n := int(w.accum)
	w.accum -= float64(n)
	// Jitter moves one edge across the sample boundary; it needs an
	// edge in flight, and the count can never go negative.
	if w.JitterProb > 0 && n > 0 && w.rng.Float64() < w.JitterProb {
		if w.rng.Intn(2) == 0 {
			n--
			w.accum++ // the edge arrives next interval instead
		} else {
			n++
			w.accum-- // an edge was double-counted
		}
	}
	if n < 0 {
		w.accum += float64(n)
		n = 0
	}
	return n
}

// Speed converts a pulse count over dt back to speed.
func (w *WheelSensor) Speed(pulses int, dt float64) float64 {
	return float64(pulses) / w.PulsesPerMeter / dt
}

// Aider turns the quantised wheel-speed stream into a smoothed speed
// and acceleration reference and estimates the IMU's longitudinal
// accelerometer bias by regressing the (identically low-passed) IMU
// x-axis reading against the odometry acceleration:
//
//	LP(imuAx) ≈ gain · d/dt LP(odoSpeed) + bias
//
// Fitting gain and intercept jointly absorbs the suspension-dive
// coupling (pitch ∝ acceleration makes the IMU see a·(1 + g·k) rather
// than a), which would otherwise leak into a mean-difference bias
// estimate. Filtering both signals with the same time constant keeps
// their group delays matched, so the regression is unbiased by lag.
type Aider struct {
	// Window is the averaging span (s). One regression sample is formed
	// per window; longer windows crush pulse-quantisation noise in the
	// regressor (errors-in-variables would otherwise attenuate the
	// fitted gain and push the mean acceleration into the intercept).
	Window float64

	// Current-window accumulators.
	spdSum, axSum float64
	wTime         float64
	// Previous completed window.
	prevSpd, prevAx float64
	prevValid       bool
	accelRef        float64

	// Regression sums over moving window pairs.
	n, sx, sy, sxx, sxy float64
	movingTime          float64
}

// NewAider returns an aider with road-tested defaults.
func NewAider() *Aider {
	return &Aider{Window: 1.0}
}

// Reset restores the aider to its freshly constructed state; the struct
// holds no heap references, so this is a plain overwrite.
func (a *Aider) Reset() { *a = Aider{Window: 1.0} }

// Update consumes one epoch: dt, the odometry speed sample (m/s, may be
// quantisation-noisy) and the IMU's x-axis specific force (m/s²). It
// returns the current bias estimate.
func (a *Aider) Update(dt, odoSpeed, imuAx float64) float64 {
	if dt <= 0 {
		return a.Bias()
	}
	a.spdSum += odoSpeed * dt
	a.axSum += imuAx * dt
	a.wTime += dt
	if a.wTime < a.Window {
		return a.Bias()
	}
	spd := a.spdSum / a.wTime
	ax := a.axSum / a.wTime
	a.spdSum, a.axSum, a.wTime = 0, 0, 0
	if a.prevValid {
		// Acceleration across the two window centres; the matching IMU
		// value is the average of the two window means (same span).
		x := (spd - a.prevSpd) / a.Window
		y := (ax + a.prevAx) / 2
		a.accelRef = x
		// Accumulate only while clearly moving (at rest the IMU x-axis
		// sees gravity leakage from any standing pitch, not bias).
		if spd > 1.0 && a.prevSpd > 1.0 {
			a.n++
			a.sx += x
			a.sy += y
			a.sxx += x * x
			a.sxy += x * y
			a.movingTime += a.Window
		}
	}
	a.prevSpd, a.prevAx, a.prevValid = spd, ax, true
	return a.Bias()
}

// Bias returns the current IMU longitudinal bias estimate (the
// regression intercept), or 0 before enough excitation has accumulated.
func (a *Aider) Bias() float64 {
	det := a.n*a.sxx - a.sx*a.sx
	if a.n < 20 || det < 1e-6 {
		return 0
	}
	return (a.sy*a.sxx - a.sx*a.sxy) / det
}

// Gain returns the fitted IMU-vs-odometry acceleration gain (≈ 1 plus
// the suspension-dive coupling), or 0 before convergence.
func (a *Aider) Gain() float64 {
	det := a.n*a.sxx - a.sx*a.sx
	if a.n < 20 || det < 1e-6 {
		return 0
	}
	return (a.n*a.sxy - a.sx*a.sy) / det
}

// AccelRef returns the latest odometry-derived acceleration (m/s²).
func (a *Aider) AccelRef() float64 { return a.accelRef }

// Converged reports whether enough moving excitation has accumulated
// for the estimates to be meaningful.
func (a *Aider) Converged() bool {
	return a.movingTime > 30 && a.n*a.sxx-a.sx*a.sx > 1
}
