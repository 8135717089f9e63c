package system

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"boresight/internal/core"
	"boresight/internal/fault"
	"boresight/internal/geom"
	"boresight/internal/imu"
	"boresight/internal/odo"
	"boresight/internal/rng"
	"boresight/internal/traj"
)

// Runner executes scenarios back to back on one reusable set of run
// objects: the two instrument models, the fusion estimator, the
// calibration instruments, the odometry aider and the link parsers.
// Everything is re-seeded and reset in place per run, so a Runner in
// steady state — consecutive scenarios with the same filter layout,
// which is what a fleet shard serves — performs zero heap allocations
// for the whole request: the per-epoch zero-allocation contract
// extended to run granularity. A Runner produces bit-identical results
// to Run for every configuration; TestRunnerMatchesRun holds that
// equivalence across heterogeneous scenario sequences.
//
// A Runner is not safe for concurrent use; pools hand one to each
// worker (see RunManyInto and the fleet server).
//
// Linked and faulted runs are allocation-free too. The one path that
// intentionally allocates is a run whose filter layout differs from the
// previous run's: it pays one estimator re-dimensioning.
type Runner struct {
	dmu    *imu.DMU
	acc    *imu.ACC
	est    *core.Estimator
	calDMU *imu.DMU
	calACC *imu.ACC
	wheel  *odo.WheelSensor
	aider  *odo.Aider

	faultRNG     *rand.Rand
	chDMU, chACC *fault.Channel
	wire         wire
	poses        poseCache
}

// NewRunner returns an empty Runner; run objects are built lazily on
// first use and reused afterwards.
func NewRunner() *Runner { return &Runner{} }

// resultPool recycles Result objects — including the capacity of their
// residual and estimate histories — across runs. RunMany and the fleet
// serving path draw from it; callers hand finished results back with
// Recycle.
var resultPool = sync.Pool{New: func() any { return new(Result) }}

// GetResult returns a (possibly recycled) Result from the package pool.
// Pair with Recycle once the caller has extracted what it needs.
func GetResult() *Result { return resultPool.Get().(*Result) }

// Recycle returns Results to the package pool for reuse by later runs.
// Nil entries are ignored. The caller must not retain any part of a
// recycled Result — including its Residuals and Estimates slices, whose
// backing arrays the next run will overwrite.
func Recycle(rs ...*Result) {
	for _, r := range rs {
		if r != nil {
			resultPool.Put(r)
		}
	}
}

// runnerPool recycles Runners for RunManyInto's workers; the fleet
// server instead pins one Runner per worker for its lifetime.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// reset clears a Result for reuse, keeping the history slices' backing
// arrays.
func (res *Result) reset() {
	*res = Result{
		Residuals: res.Residuals[:0],
		Estimates: res.Estimates[:0],
	}
}

// RunInto executes the configured scenario into res, which is fully
// overwritten (its history slices are truncated and re-grown in place).
// Unlike Run, an invalid filter configuration is reported as an error
// rather than a panic — configurations that arrive over a wire must
// never kill a serving worker.
func (r *Runner) RunInto(res *Result, cfg Config) error {
	if cfg.Profile == nil {
		return fmt.Errorf("system: no motion profile")
	}
	if err := core.Validate(cfg.Filter); err != nil {
		return fmt.Errorf("system: filter config: %w", err)
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 100
	}
	if cfg.ResidualStride == 0 {
		cfg.ResidualStride = 1
	}
	if cfg.CalibrationTime <= 0 {
		cfg.CalibrationTime = 30
	}
	res.reset()

	if r.dmu == nil {
		r.dmu = imu.NewDMU(cfg.DMU, cfg.Seed)
		r.acc = imu.NewACC(cfg.ACC, cfg.Seed+1)
	} else {
		r.dmu.Reset(cfg.DMU, cfg.Seed)
		r.acc.Reset(cfg.ACC, cfg.Seed+1)
	}
	dmu, acc := r.dmu, r.acc
	if r.est == nil {
		r.est = core.New(cfg.Filter)
	} else if err := r.est.Reset(cfg.Filter); err != nil {
		return fmt.Errorf("system: filter config: %w", err)
	}
	est := r.est

	if cfg.Calibrate {
		bx, by := r.calibrateBiases(cfg)
		est.SetInitialBias(bx, by, 0.005)
	}

	dt := 1 / cfg.SampleRate
	dur := cfg.Profile.Duration()
	if cfg.Duration > 0 && cfg.Duration < dur {
		dur = cfg.Duration
	}
	n := int(dur * cfg.SampleRate)
	tab := truthTable(&cfg, dt, n)
	pseq, static := cfg.Profile.(traj.PoseSequence)
	res.True = cfg.TrueMisalignment
	exceeded := 0

	r.wire.bridge.Reset()
	r.wire.accParse.Reset()
	seq := byte(0)

	var wheel *odo.WheelSensor
	var aider *odo.Aider
	if cfg.UseOdometry {
		if r.wheel == nil {
			r.wheel = odo.NewWheelSensor(24.6, cfg.Seed+50)
			r.aider = odo.NewAider()
		} else {
			r.wheel.Reset(24.6, cfg.Seed+50)
			r.aider.Reset()
		}
		wheel, aider = r.wheel, r.aider
	}

	var faultRNG *rand.Rand
	if cfg.LinkFaultProb > 0 {
		if r.faultRNG == nil {
			r.faultRNG = rand.New(new(rng.Source))
		}
		r.faultRNG.Seed(cfg.Seed + 60)
		faultRNG = r.faultRNG
	}
	// Per-link fault channels and supervisors. The channels are seeded
	// from the run seed with distinct offsets so the two links draw
	// independent — but replayable — fault sequences. The supervisors
	// run whenever links are on: staleness classification is a property
	// of the receiver, not of whether faults are being injected.
	var chDMU, chACC *fault.Channel
	var supDMU, supACC *fault.Supervisor
	if cfg.UseLinks {
		supDMU = fault.NewSupervisor(cfg.FaultProfile.StaleThreshold())
		supACC = fault.NewSupervisor(cfg.FaultProfile.StaleThreshold())
		if cfg.FaultProfile.Enabled() {
			if r.chDMU == nil {
				r.chDMU = fault.NewChannel(cfg.FaultProfile, cfg.Seed+61)
				r.chACC = fault.NewChannel(cfg.FaultProfile, cfg.Seed+62)
			} else {
				r.chDMU.Reset(cfg.FaultProfile, cfg.Seed+61)
				r.chACC.Reset(cfg.FaultProfile, cfg.Seed+62)
			}
			chDMU, chACC = r.chDMU, r.chACC
		}
	}
	// Per-stream held registers, written only from values that actually
	// crossed the wire — a lost first sample is a dropout epoch, never a
	// silent fall-through to the wire-bypassing direct values.
	var heldFb geom.Vec3
	var heldAx, heldAy float64
	heldFbValid, heldACCValid := false, false

	// Hot-swap state for ReconfigureOnFault: the nominal filter config
	// to restore, and whether the degraded model is currently active.
	walkScale := cfg.DegradedWalkScale
	if walkScale <= 0 {
		walkScale = 10
	}
	nominalFilter := cfg.Filter
	inDegraded := false

	bumped := false
	drifted := false
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		if cfg.BumpAt > 0 && !bumped && t >= cfg.BumpAt {
			acc.SetMisalignment(cfg.BumpMisalignment)
			res.True = cfg.BumpMisalignment
			bumped = true
		}
		if cfg.NoiseDriftAt > 0 && cfg.NoiseDriftFactor > 0 && !drifted && t >= cfg.NoiseDriftAt {
			acc.ScaleNoise(cfg.NoiseDriftFactor)
			drifted = true
		}
		var tr epochTruth
		switch {
		case tab != nil:
			tr = tab[i]
		case static:
			tr = r.poses.truth(pseq, cfg.Vibrate, cfg.Vibration, t)
		default:
			tr = truthAt(cfg.Profile, cfg.Vibrate, cfg.Vibration, t)
		}
		ds := dmu.SampleBody(tr.t, tr.f, tr.w)
		as := acc.SampleBody(tr.t, tr.f, tr.w)

		fb := ds.Accel
		ax, ay := as.FX, as.FY
		quality := core.QualityFresh
		if cfg.UseLinks {
			lfb, lax, lay, dmuOK, accOK, err := throughLinks(
				&r.wire, ds, as, cfg.ACC.Codec, &seq, &res.LinkStats,
				faultRNG, cfg.LinkFaultProb, chDMU, chACC)
			if err != nil {
				return err
			}
			dmuSt := supDMU.Observe(dmuOK)
			accSt := supACC.Observe(accOK)
			if cfg.ReconfigureOnFault {
				// Supervisor-driven hot swap: a stream going Stale
				// switches in the fast-wander degraded process model;
				// both streams back to Fresh restores the nominal one.
				// Hysteresis is inherent — Held epochs change nothing.
				if !inDegraded && (dmuSt == fault.Stale || accSt == fault.Stale) {
					degraded, derr := est.ScaleProcessNoise(walkScale)
					if derr == nil {
						derr = est.Reconfigure(degraded)
					}
					if derr != nil {
						return fmt.Errorf("system: degraded reconfigure: %w", derr)
					}
					inDegraded = true
				} else if inDegraded && dmuSt == fault.Fresh && accSt == fault.Fresh {
					if derr := est.Reconfigure(nominalFilter); derr != nil {
						return fmt.Errorf("system: nominal reconfigure: %w", derr)
					}
					inDegraded = false
				}
			}
			if dmuOK {
				fb = lfb
				heldFb, heldFbValid = lfb, true
			} else {
				res.LinkStats.DroppedDMU++
			}
			if accOK {
				ax, ay = lax, lay
				heldAx, heldAy, heldACCValid = lax, lay, true
			} else {
				res.LinkStats.DroppedACC++
			}
			// Compose the epoch quality from the two stream verdicts:
			// either stream stale (or never seen) means no trustworthy
			// measurement exists — a true dropout epoch; either stream
			// held means the update runs de-weighted on the last good
			// wire values; both fresh is the normal path. The direct
			// (wire-bypassing) sensor values are never consumed on a
			// degraded epoch.
			switch {
			case dmuSt == fault.Stale || accSt == fault.Stale,
				!dmuOK && !heldFbValid, !accOK && !heldACCValid:
				quality = core.QualityDropout
			case dmuSt == fault.Held || accSt == fault.Held:
				quality = core.QualityHeld
				if !dmuOK {
					fb = heldFb
				}
				if !accOK {
					ax, ay = heldAx, heldAy
				}
			}
		}

		if cfg.UseOdometry && quality != core.QualityDropout {
			odoSpeed := wheel.Speed(wheel.Sample(tr.speed, dt), dt)
			aider.Update(dt, odoSpeed, fb[0])
			if aider.Converged() {
				fb[0] -= aider.Bias()
			}
		}

		inn, err := est.StepDegraded(dt, fb, ds.Rate, ax, ay, quality)
		if err != nil {
			return fmt.Errorf("system: step %d: %w", i, err)
		}
		// A dropout epoch produces no innovation; the residual history
		// records only real measurement epochs.
		if len(inn.Residual) >= 2 {
			ex := inn.Exceeds3Sigma()
			if ex {
				exceeded++
			}
			if cfg.ResidualStride > 0 && i%cfg.ResidualStride == 0 {
				res.Residuals = append(res.Residuals, ResidualSample{
					T:  t,
					RX: inn.Residual[0], RY: inn.Residual[1],
					SX: inn.Sigma[0], SY: inn.Sigma[1],
					Exceeded: ex,
				})
			}
		}
		if cfg.EstimateStride > 0 && i%cfg.EstimateStride == 0 {
			m := est.Misalignment()
			sg := est.AngleSigmas()
			res.Estimates = append(res.Estimates, EstimateSample{
				T: t, Roll: m.Roll, Pitch: m.Pitch, Yaw: m.Yaw,
				Sig3: [3]float64{3 * sg[0], 3 * sg[1], 3 * sg[2]},
			})
		}
	}

	res.Estimated = est.Misalignment()
	s := est.AngleSigmas()
	truth := res.True
	errs := [3]float64{
		res.Estimated.Roll - truth.Roll,
		res.Estimated.Pitch - truth.Pitch,
		res.Estimated.Yaw - truth.Yaw,
	}
	res.WithinConfidence = true
	for i := range errs {
		res.ErrorDeg[i] = math.Abs(geom.Rad2Deg(errs[i]))
		res.ThreeSigmaDeg[i] = geom.Rad2Deg(3 * s[i])
		if math.Abs(errs[i]) > 3*s[i] {
			res.WithinConfidence = false
		}
	}
	res.BiasEst[0], res.BiasEst[1] = est.Biases()
	res.LeverEst = est.Lever()
	res.Bumps = est.Bumps()
	if aider != nil {
		res.OdoBiasEst = aider.Bias()
	}
	res.Steps = est.Steps()
	res.FinalMeasNoise = est.MeasNoise()
	res.RHatSigma[0], res.RHatSigma[1] = est.RHat()
	res.MeanNIS = est.MeanNIS()
	res.Reconfigs = est.Reconfigs()
	res.IMUBiasEst = est.IMUBias()
	res.IMUScaleEst = est.IMUScales()
	res.Gated = est.Gated()
	res.DropoutEpochs = est.Dropouts()
	res.HeldUpdates = est.HeldUpdates()
	if cfg.UseLinks {
		res.DMUStream = streamStats(chDMU, supDMU)
		res.ACCStream = streamStats(chACC, supACC)
	}
	if n > 0 {
		res.ExceedanceRate = float64(exceeded) / float64(n)
	}
	// A recycled Result carries history capacity; a fresh one carries
	// nil. Normalise empty histories to nil so results are deeply equal
	// regardless of which kind of Result they were run into — the
	// determinism tests compare across both.
	if len(res.Residuals) == 0 {
		res.Residuals = nil
	}
	if len(res.Estimates) == 0 {
		res.Estimates = nil
	}
	return nil
}

// levelTruth is the calibration platform's truth: level, still and
// free of vibration, so the same at every epoch of every calibration.
var levelTruth = truthAt(traj.StaticPose{}, false, traj.Vibration{}, 0)

// calibrateBiases simulates the paper's pre-test calibration: the
// instruments run on a level platform with the sensor still aligned
// (before the misalignment is introduced) and the mean residual gives
// the ACC bias relative to the IMU. The calibration instruments are
// reused across runs like every other Runner object.
func (r *Runner) calibrateBiases(cfg Config) (bx, by float64) {
	accCfg := cfg.ACC
	accCfg.Misalignment = geom.Euler{} // not yet misaligned
	if r.calDMU == nil {
		r.calDMU = imu.NewDMU(cfg.DMU, cfg.Seed+100)
		r.calACC = imu.NewACC(accCfg, cfg.Seed+101)
	} else {
		r.calDMU.Reset(cfg.DMU, cfg.Seed+100)
		r.calACC.Reset(accCfg, cfg.Seed+101)
	}
	dt := 1 / cfg.SampleRate
	n := int(cfg.CalibrationTime * cfg.SampleRate)
	var sx, sy float64
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		ds := r.calDMU.SampleBody(t, levelTruth.f, levelTruth.w)
		as := r.calACC.SampleBody(t, levelTruth.f, levelTruth.w)
		// Aligned: the ACC should read the IMU's x/y components.
		sx += as.FX - ds.Accel[0]
		sy += as.FY - ds.Accel[1]
	}
	return sx / float64(n), sy / float64(n)
}
