package traj

import "math"

// Vibration models the engine and road-surface disturbance that
// contaminates accelerometer measurements while the vehicle moves — the
// effect that forced the paper to raise the Kalman measurement noise
// from ~0.003–0.01 m/s² (static) to ≥0.015 m/s² (dynamic). The model is
// a sum of deterministic engine-order harmonics plus speed-dependent
// broadband road noise synthesised from fixed-phase sinusoids, so a
// profile replays identically between runs.
type Vibration struct {
	// EngineRPM is the dominant engine speed; its firing harmonics are
	// the strongest lines in the spectrum.
	EngineRPM float64
	// EngineAmp is the peak acceleration of the fundamental engine
	// harmonic at the sensor location (m/s²).
	EngineAmp float64
	// RoadAmpPerSpeed scales broadband road noise with vehicle speed
	// ((m/s²) per (m/s)).
	RoadAmpPerSpeed float64
}

// DefaultVibration returns vibration parameters representative of a
// passenger car at the sensor mounting points.
func DefaultVibration() Vibration {
	return Vibration{
		EngineRPM:       2400,
		EngineAmp:       0.05,
		RoadAmpPerSpeed: 0.004,
	}
}

// broadband frequencies (Hz) and fixed phases for the road-noise
// synthesis; chosen incommensurate so the sum does not repeat quickly.
var roadFreqs = []float64{7.3, 11.9, 17.7, 23.1, 31.4, 41.3, 53.9}
var roadPhases = []float64{0.1, 1.3, 2.9, 4.2, 0.7, 3.6, 5.1}

// At returns the vibration acceleration in body axes at time t given the
// current vehicle speed (m/s). A stationary vehicle with the engine
// idling still vibrates, but far less.
func (v Vibration) At(t, speed float64) [3]float64 {
	// Engine firing frequency for a 4-cylinder 4-stroke: 2 pulses per rev.
	f0 := v.EngineRPM / 60 * 2
	idleFactor := 0.3
	if speed > 0.5 {
		idleFactor = 1.0
	}
	engine := v.EngineAmp * idleFactor
	var out [3]float64
	// Engine harmonics couple mostly into z (vertical) and x (fore-aft).
	out[0] = 0.4 * engine * math.Sin(2*math.Pi*f0*t)
	out[2] = engine * math.Sin(float64(2*math.Pi*f0*t)+0.8)
	out[2] += float64(0.5 * engine * math.Sin(float64(2*math.Pi*2*f0*t)+1.9))
	// Road noise grows with speed and hits all axes.
	road := v.RoadAmpPerSpeed * speed
	for i, f := range roadFreqs {
		s := float64(road * math.Sin(float64(2*math.Pi*f*t)+roadPhases[i]))
		switch i % 3 {
		case 0:
			out[2] += s
		case 1:
			out[0] += float64(0.6 * s)
		default:
			out[1] += float64(0.8 * s)
		}
	}
	return out
}

// RMS estimates the root-mean-square vibration magnitude per axis over a
// window, used to sanity-check noise tuning in tests and reports.
func (v Vibration) RMS(speed float64, window float64) [3]float64 {
	const dt = 1e-3
	n := int(window / dt)
	var sum [3]float64
	for k := 0; k < n; k++ {
		a := v.At(float64(k)*dt, speed)
		for i := 0; i < 3; i++ {
			sum[i] += float64(a[i] * a[i])
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = math.Sqrt(sum[i] / float64(n))
	}
	return out
}
