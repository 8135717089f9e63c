// Package system wires the complete boresight prototype of the paper's
// Figure 2: truth generation, the DMU and ACC sensor models, the CAN /
// CAN-to-RS232 / serial links with their parsers, calibration, the
// sensor-fusion filter, and the affine video correction — so an
// experiment is one function call, and every byte the filter consumes
// has travelled the same path it does on the hardware.
package system

import (
	"fmt"
	"math/rand"

	"boresight/internal/canbus"
	"boresight/internal/core"
	"boresight/internal/fault"
	"boresight/internal/geom"
	"boresight/internal/imu"
	"boresight/internal/link"
	"boresight/internal/traj"
)

// Config describes one boresight run.
type Config struct {
	// Profile is the vehicle motion (static pose or drive).
	Profile traj.Profile
	// TrueMisalignment is the introduced sensor misalignment the
	// filter must recover.
	TrueMisalignment geom.Euler
	// DMU and ACC are the instrument error models; zero values use the
	// package defaults.
	DMU imu.DMUConfig
	ACC imu.ACCConfig
	// Vibrate enables the vehicle vibration disturbance (the dynamic
	// tests' dominant noise source).
	Vibrate   bool
	Vibration traj.Vibration
	// Filter is the fusion configuration.
	Filter core.Config
	// SampleRate is the fusion rate in Hz (default 100).
	SampleRate float64
	// Seed drives all sensor noise.
	Seed int64
	// UseLinks routes every sample through the bit-level CAN frame,
	// the CAN-to-RS232 bridge and the ACC serial protocol before the
	// filter sees it (slower; default direct).
	UseLinks bool
	// Calibrate runs a level-platform bias calibration before the
	// misaligned run and seeds the filter with the result, as the
	// paper does ("the system was calibrated first").
	Calibrate bool
	// CalibrationTime is the calibration duration in seconds
	// (default 30).
	CalibrationTime float64
	// A negative stride disables residual collection entirely — the
	// fleet serving path runs scenarios whose histories nobody reads.
	// ResidualStride keeps every n-th residual sample in the result
	// (default 1 = all).
	ResidualStride int
	// EstimateStride keeps every n-th estimate snapshot (0 disables,
	// which is the default; Figure 9 uses these).
	EstimateStride int
	// Duration, when positive, overrides the profile's own duration
	// (useful because driving profiles round up to whole patterns).
	Duration float64
	// UseOdometry enables the vehicle-data aiding of the paper's
	// Section 12 ("the fusion of data from the vehicle"): wheel-speed
	// pulses provide an independent longitudinal reference whose
	// regression against the IMU estimates and removes the IMU's own
	// x-axis accelerometer bias while driving.
	UseOdometry bool
	// BumpAt, when positive, knocks the sensor to BumpMisalignment at
	// that time — the paper's "car park bump" that the system must
	// continuously realign after. Error metrics are then computed
	// against the post-bump truth.
	BumpAt           float64
	BumpMisalignment geom.Euler
	// LinkFaultProb injects wire faults when UseLinks is on: with this
	// probability per sample and per link, one transported byte is
	// corrupted. The parsers drop the damaged packet and the system
	// holds the last good value — the degradation an EMI burst causes.
	LinkFaultProb float64
	// FaultProfile configures the full channel fault model (package
	// fault) for both links when UseLinks is on: BER run through the
	// real 8N1 framing, byte drops and duplications, burst corruption,
	// line breaks and delivery jitter, all drawn deterministically from
	// Seed so faulted runs replay byte-identically. The zero value
	// injects nothing. Each link gets an independent channel; the
	// profile's StaleAfter also sets the link supervisors' staleness
	// threshold (used even when no faults are injected).
	FaultProfile fault.Profile
	// NoiseDriftAt / NoiseDriftFactor inject an unmodelled mid-run noise
	// regime change: at NoiseDriftAt seconds the ACC's per-sample noise
	// σ is multiplied by NoiseDriftFactor (both must be positive to take
	// effect). The scenario the adaptive R̂ estimator
	// (core.Config.AdaptiveR) exists for.
	NoiseDriftAt     float64
	NoiseDriftFactor float64
	// ReconfigureOnFault hot-swaps the filter's process model from the
	// link supervisors' verdicts (UseLinks only): when either stream
	// goes Stale the process-noise densities are scaled by
	// degradedWalkScale — the state is allowed to wander faster while
	// measurements are missing, so re-convergence after the outage is
	// fast — and when both streams are Fresh again the nominal model is
	// restored. Each transition is one core.Estimator.Reconfigure call.
	ReconfigureOnFault bool
}

// degradedWalkScale is the process-noise multiplier of the degraded
// model ReconfigureOnFault switches to.
const degradedWalkScale = 10

// DefaultConfig returns a ready-to-run configuration for the given
// profile and misalignment, with calibration enabled.
func DefaultConfig(profile traj.Profile, mis geom.Euler) Config {
	return Config{
		Profile:          profile,
		TrueMisalignment: mis,
		DMU:              imu.DefaultDMUConfig(),
		ACC:              imu.DefaultACCConfig(mis),
		Vibration:        traj.DefaultVibration(),
		Filter:           core.DefaultConfig(),
		SampleRate:       100,
		Seed:             1,
		Calibrate:        true,
		CalibrationTime:  30,
	}
}

// ResidualSample is one innovation record — the raw material of the
// paper's Figure 8.
type ResidualSample struct {
	T        float64 // time (s)
	RX, RY   float64 // x'/y' residuals (m/s²)
	SX, SY   float64 // 1σ innovation sigmas
	Exceeded bool    // outside the 3σ envelope
}

// EstimateSample is one snapshot of the filter's solution — the
// material of the paper's Figure 9 convergence plot.
type EstimateSample struct {
	T                float64
	Roll, Pitch, Yaw float64    // estimate (rad)
	Sig3             [3]float64 // 3σ per axis (rad)
}

// Result reports a completed run.
type Result struct {
	// True and Estimated misalignment, and the per-axis error.
	True      geom.Euler
	Estimated geom.Euler
	ErrorDeg  [3]float64 // |estimate − truth| per axis, degrees
	// ThreeSigmaDeg is the filter's own 3σ confidence per axis in
	// degrees — Table 1's confidence column.
	ThreeSigmaDeg [3]float64
	// WithinConfidence reports whether every axis error is inside the
	// filter's 3σ claim.
	WithinConfidence bool
	// BiasEst are the estimated ACC biases.
	BiasEst [2]float64
	// Residuals is the (possibly strided) innovation history.
	Residuals []ResidualSample
	// Estimates is the (strided) solution history; empty unless
	// EstimateStride is set.
	Estimates []EstimateSample
	// ExceedanceRate is the fraction of samples outside 3σ.
	ExceedanceRate float64
	// Steps is the number of fusion updates.
	Steps int
	// FinalMeasNoise is the filter's configured measurement σ
	// (core.Estimator.MeasNoise).
	FinalMeasNoise float64
	// OdoBiasEst is the odometry-estimated IMU longitudinal bias
	// (0 unless UseOdometry).
	OdoBiasEst float64
	// LeverEst is the estimated sensor lever arm (zero unless the
	// filter's EstimateLever is on).
	LeverEst geom.Vec3
	// Bumps counts covariance reopenings by the bump detector.
	Bumps int
	// LinkStats counts transport-layer activity when UseLinks is on.
	LinkStats LinkStats
	// Gated counts measurements the innovation gate rejected.
	Gated int
	// DropoutEpochs counts epochs the filter ran as time-update-only
	// because a stream was stale (no trustworthy measurement existed).
	DropoutEpochs int
	// HeldUpdates counts measurement updates processed from
	// sample-and-hold replays with inflated noise.
	HeldUpdates int
	// RHatSigma is the final per-axis adaptive measurement-noise
	// estimate σ̂ (the configured σ on both axes when AdaptiveR is off).
	RHatSigma [2]float64
	// MeanNIS is the mean normalised innovation squared over accepted
	// updates — ≈2 for a consistent filter.
	MeanNIS float64
	// Reconfigs counts filter hot-swaps applied by ReconfigureOnFault.
	Reconfigs int
	// IMUBiasEst / IMUScaleEst are the self-calibration estimates
	// (zero vectors unless EstimateIMUBias / EstimateIMUScale are on).
	IMUBiasEst  geom.Vec3
	IMUScaleEst geom.Vec3
	// DMUStream / ACCStream report per-link degradation telemetry:
	// channel fault counters plus the supervisor's classification of
	// every sample epoch. Together with Gated/DropoutEpochs/HeldUpdates
	// they account for every injected fault — nothing degrades
	// silently.
	DMUStream StreamStats
	ACCStream StreamStats
}

// LinkStats counts transport activity for a linked run.
type LinkStats struct {
	CANFrames  int
	CANBits    int
	ACCPackets int
	BridgeByts int
	// DroppedDMU / DroppedACC count sample epochs on which the link
	// delivered no valid packet (the filter ran held, or declared a
	// dropout when the stream went stale).
	DroppedDMU int
	DroppedACC int
}

// StreamStats is one link's degradation telemetry: what the fault
// channel did to the byte stream, and how the link supervisor
// classified each sample epoch.
type StreamStats struct {
	// Channel holds the fault channel's counters (zero when no fault
	// profile was enabled).
	Channel fault.Stats
	// Good, Held and Stale count sample epochs by supervisor verdict.
	Good, Held, Stale int
	// LongestOutage is the longest run of consecutive epochs without a
	// good packet.
	LongestOutage int
}

// Run executes the configured scenario. It is the one-shot form of
// Runner.RunInto — a fresh Runner and Result per call — and produces
// bit-identical output; batch and serving callers reuse Runners and
// pooled Results instead (RunMany, the fleet server).
func Run(cfg Config) (*Result, error) {
	var r Runner
	res := new(Result)
	if err := r.RunInto(res, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// streamStats assembles one link's degradation telemetry.
func streamStats(ch *fault.Channel, sup *fault.Supervisor) StreamStats {
	var s StreamStats
	if ch != nil {
		s.Channel = ch.Stats()
	}
	s.Good, s.Held, s.Stale, s.LongestOutage = sup.Health()
	return s
}

// wire is a Runner's transport chain: the two receive-side packet
// parsers and the scratch one sample's frames and packets are built in,
// reused from sample to sample and run to run so the linked path
// allocates nothing.
type wire struct {
	bridge   link.BridgeParser
	accParse link.ACCParser

	bits   []bool  // one CAN frame's bus bits
	tx, rx [8]byte // the DMU frame's payload before and after the bus
	pkt    []byte  // one serial packet
	hit    []byte  // a copy of pkt with one bit flipped
}

// throughLinks pushes one sample pair through the full wire path:
// DMU accels → CAN frame bits → CAN decode → bridge packet → bridge
// parser → scaled values, and ACC → duty-cycle counts → serial packet →
// parser → codec decode. With a fault generator, each link's byte
// stream may be corrupted; with per-link fault channels, the bytes also
// pass through the full channel model (BER via 8N1 framing, drops,
// bursts, breaks, jitter). A packet damaged either way is rejected by
// its checksum and the corresponding OK flag comes back false.
func throughLinks(w *wire, ds imu.DMUSample, as imu.ACCSample, codec imu.DutyCycleCodec,
	seq *byte, stats *LinkStats, faultRNG *rand.Rand, faultProb float64, chDMU, chACC *fault.Channel,
) (fb geom.Vec3, ax, ay float64, dmuOK, accOK bool, err error) {
	corrupt := func(data []byte) []byte {
		if faultRNG == nil || faultProb <= 0 || faultRNG.Float64() >= faultProb || len(data) == 0 {
			return data
		}
		w.hit = append(w.hit[:0], data...)
		w.hit[faultRNG.Intn(len(w.hit))] ^= 1 << uint(faultRNG.Intn(8))
		return w.hit
	}
	// channel passes the byte stream through a link's fault model (nil
	// channel = clean line).
	channel := func(ch *fault.Channel, data []byte) []byte {
		if ch == nil {
			return data
		}
		return ch.Transmit(data)
	}

	// DMU side.
	frame := link.DMUAccelsFrame(&w.tx, *seq, ds.Accel)
	*seq++
	w.bits, err = frame.AppendEncode(w.bits[:0])
	if err != nil {
		return fb, 0, 0, false, false, fmt.Errorf("system: CAN encode: %w", err)
	}
	stats.CANFrames++
	stats.CANBits += len(w.bits)
	rxFrame, _, err := canbus.DecodeInto(w.bits, &w.rx)
	if err != nil {
		return fb, 0, 0, false, false, fmt.Errorf("system: CAN decode: %w", err)
	}
	w.pkt = link.AppendBridge(w.pkt[:0], rxFrame)
	for _, b := range channel(chDMU, corrupt(w.pkt)) {
		stats.BridgeByts++
		if f, ok := w.bridge.Push(b); ok {
			// A frame damaged beyond the checksum's reach, or of
			// another type, is dropped.
			if a, ok := link.DecodeDMUAccels(f); ok {
				fb, dmuOK = a.Accel, true
			}
		}
	}

	// ACC side.
	c := codec
	if c.T2Counts == 0 {
		c.T2Counts = 4096
	}
	w.pkt = link.AppendACC(w.pkt[:0], link.ACCPacket{
		T1X: uint16(c.Encode(as.FX)),
		T1Y: uint16(c.Encode(as.FY)),
		T2:  uint16(c.T2Counts),
	})
	var got link.ACCPacket
	for _, b := range channel(chACC, corrupt(w.pkt)) {
		if p, ok := w.accParse.Push(b); ok {
			got, accOK = p, true
		}
	}
	if accOK {
		stats.ACCPackets++
		ax = c.Decode(int(got.T1X))
		ay = c.Decode(int(got.T1Y))
	}
	return fb, ax, ay, dmuOK, accOK, nil
}
