// Package core implements the paper's Sensor Fusion Algorithm: an
// error-state extended Kalman filter that estimates the boresight
// misalignment (roll, pitch, yaw) of a sensor-mounted two-axis
// accelerometer (ACC) relative to the vehicle-fixed IMU, together with
// the ACC's instrument errors, from the common specific-force observable
// (Sections 3, 5 and 11 of the paper).
//
// # Model
//
// The vehicle's specific force f_b is measured in body axes by the IMU's
// accelerometer triad. The ACC senses the same mechanical input rotated
// into the sensor frame by the true misalignment and corrupted by its
// own bias and scale-factor errors:
//
//	z = diag(1+s) · (C_b2s · f_b)[x,y] + b + noise
//
// The filter maintains a multiplicative attitude estimate Ĉ_s2b (as a
// quaternion) and an error state
//
//	x = [δa₀ δa₁ δa₂, b_x b_y, s_x s_y, r_x r_y r_z]
//
// where δa is a small-angle rotation error folded back into the
// quaternion after every update (so the linearisation point is always
// current); the bias, scale and lever-arm blocks are optional, as are
// self-calibration blocks for the IMU's own accelerometer bias and
// scale (Config.EstimateIMUBias/EstimateIMUScale). The
// lever arm r models the sensor's mounting offset from the IMU, which
// adds the centripetal term ω×(ω×r) to the force the ACC feels (fed via
// StepFull's gyro input). Misalignment angles and instrument errors are
// physically near-constant, so the process model is a random walk with
// tiny spectral density.
//
// The innovation sequence and its 3σ envelope — the paper's Figure 8 —
// are returned from every Step; the optional adaptive-noise mode
// implements the paper's residual-driven retuning of the measurement
// noise (raised from ~0.003–0.01 m/s² static to ≥0.015 m/s² moving).
package core

import (
	"fmt"
	"math"

	"boresight/internal/geom"
	"boresight/internal/kalman"
	"boresight/internal/mat"
)

// Config parameterises the boresight estimator.
type Config struct {
	// EstimateBias adds the two ACC bias states.
	EstimateBias bool
	// EstimateScale adds the two ACC scale-factor states.
	EstimateScale bool
	// EstimateLever adds three lever-arm states (the sensor's mounting
	// offset from the IMU, metres): under rotation the offset produces
	// the centripetal difference ω×(ω×r), which turning manoeuvres
	// make observable through the gyros — the self-referencing
	// extension of the paper's Section 12.
	EstimateLever bool
	// EstimateIMUBias adds three IMU accelerometer-bias states (body
	// frame, m/s²) — augmented self-calibration: the reference triad's
	// own instrument error is estimated alongside the misalignment, so
	// IMU drift no longer masquerades as ACC bias. Separating the two
	// bias families needs attitude variation (the IMU bias is fixed in
	// the body frame, the ACC's in the sensor frame only as projected
	// through the misalignment), so expect slow convergence on static
	// profiles; enabling it without EstimateBias is fully observable.
	EstimateIMUBias bool
	// EstimateIMUScale adds three IMU accelerometer scale-factor states
	// (unitless), observable whenever the specific-force magnitude or
	// direction varies (manoeuvres, vibration).
	EstimateIMUScale bool

	// InitAngleSigma is the 1σ prior on each misalignment angle (rad).
	InitAngleSigma float64
	// InitBiasSigma is the 1σ prior on each ACC bias (m/s²).
	InitBiasSigma float64
	// InitScaleSigma is the 1σ prior on each ACC scale error (unitless).
	InitScaleSigma float64
	// InitLeverSigma is the 1σ prior on each lever-arm component (m).
	InitLeverSigma float64
	// InitIMUBiasSigma is the 1σ prior on each IMU bias state (m/s²).
	InitIMUBiasSigma float64
	// InitIMUScaleSigma is the 1σ prior on each IMU scale state.
	InitIMUScaleSigma float64

	// AngleWalk is the process-noise spectral density of the angles
	// (rad/√s); near zero because mountings drift very slowly.
	AngleWalk float64
	// BiasWalk is the bias process density ((m/s²)/√s).
	BiasWalk float64
	// ScaleWalk is the scale process density (1/√s).
	ScaleWalk float64
	// LeverWalk is the lever-arm process density (m/√s).
	LeverWalk float64
	// IMUBiasWalk is the IMU bias process density ((m/s²)/√s).
	IMUBiasWalk float64
	// IMUScaleWalk is the IMU scale process density (1/√s).
	IMUScaleWalk float64

	// MeasNoise is the per-axis measurement noise σ (m/s²) — the
	// paper's central tuning knob.
	MeasNoise float64

	// Adaptive enables residual-driven measurement-noise retuning
	// (Section 11): when the observed 3σ exceedance rate over
	// AdaptWindow samples is far above the ~1%-consistent level the
	// noise is raised, and it decays back toward MeasNoise when the
	// residuals are quiet.
	Adaptive    bool
	AdaptWindow int

	// AdaptiveR enables windowed innovation-covariance matching: a
	// per-axis online measurement-noise estimate R̂ replaces MeasNoise in
	// every update (see AdaptiveConfig). Supersedes Adaptive when set.
	AdaptiveR AdaptiveConfig

	// GateSigma rejects measurements whose innovation Mahalanobis
	// distance exceeds this many sigmas (0 disables). Gating protects
	// the filter from outliers that survive the transport checksums —
	// the flip side of the paper's residual monitoring.
	GateSigma float64

	// Chi2Gate additionally rejects measurements whose innovation
	// chi-square statistic νᵀS⁻¹ν exceeds this threshold (0 disables) —
	// the classical chi-square innovation test. Unlike GateSigma it has
	// a principled quantile interpretation: the measurement is 2-D, so
	// 13.8 gates at the χ²(2) 99.9% level. Both gates share the
	// breakthrough counter, so a lockout still self-heals.
	Chi2Gate float64

	// HeldInflation controls measurement-noise inflation for held
	// (sample-and-hold replayed) measurements fed through StepDegraded:
	// the k-th consecutive held sample is processed with its noise σ
	// multiplied by 1 + HeldInflation·k, capped at maxHeldInflation×.
	// 0 disables inflation — a held sample is then trusted like a fresh
	// one, which is exactly the failure mode dropout-aware fusion
	// exists to avoid.
	HeldInflation float64

	// BumpRecovery enables the "continuously realigned" behaviour of
	// the paper's Section 2: a sustained residual burst (a run of 3σ
	// exceedances far too long for noise) means the mounting physically
	// moved — a car-park bump — and the filter reopens its angle
	// covariance so the new alignment is re-acquired in seconds rather
	// than drifting in over the angle random walk.
	BumpRecovery bool
}

// DefaultConfig returns the configuration used by the paper-replication
// experiments: full state (angles + bias + scale), 5° angle prior, and
// the static-test measurement noise.
func DefaultConfig() Config {
	return Config{
		EstimateBias:   true,
		EstimateScale:  true,
		InitAngleSigma: geom.Deg2Rad(5),
		InitBiasSigma:  0.05,
		InitScaleSigma: 0.01,
		InitLeverSigma: 0.5,
		LeverWalk:      1e-6,

		InitIMUBiasSigma:  0.05,
		InitIMUScaleSigma: 0.01,
		IMUBiasWalk:       1e-6,
		IMUScaleWalk:      1e-7,
		AngleWalk:         1e-6,
		BiasWalk:          1e-6,
		ScaleWalk:         1e-7,
		MeasNoise:         0.01,
		AdaptWindow:       200,
		GateSigma:         6,
		HeldInflation:     1,
	}
}

// Quality classifies the provenance of one measurement epoch for
// StepDegraded, mirroring the link supervisor's stream status (package
// fault): a fresh sample came off the wire this epoch, a held sample is
// the last good value replayed by sample-and-hold, and a dropout means
// the stream is stale and no trustworthy measurement exists at all.
type Quality int

const (
	// QualityFresh marks a measurement received this epoch.
	QualityFresh Quality = iota
	// QualityHeld marks a sample-and-hold replay of the last good value;
	// it is processed with inflated measurement noise (see
	// Config.HeldInflation).
	QualityHeld
	// QualityDropout marks a stale stream: the epoch runs the time
	// update only, so uncertainty grows honestly instead of the filter
	// re-ingesting a fossil value at full confidence.
	QualityDropout
)

// String implements fmt.Stringer.
func (q Quality) String() string {
	switch q {
	case QualityFresh:
		return "fresh"
	case QualityHeld:
		return "held"
	case QualityDropout:
		return "dropout"
	}
	return "unknown"
}

// maxHeldInflation caps the held-sample noise multiplier: beyond ~8× the
// measurement carries so little weight that further inflation only risks
// numerical conditioning without changing behaviour.
const maxHeldInflation = 8.0

// State indices within the error-state vector.
const (
	ixA0 = iota // δa roll component
	ixA1        // δa pitch component
	ixA2        // δa yaw component
)

// Estimator is the boresight sensor-fusion filter.
type Estimator struct {
	cfg Config
	kf  *kalman.Filter
	// att is the estimated sensor-to-body rotation Ĉ_s2b.
	att geom.Quat
	// State indices for the optional blocks; -1 when absent.
	ibx, iby, isx, isy, ilv, iib, iis int
	n                                 int
	// Current adapted measurement noise σ.
	measNoise float64
	// Low-passed body angular rate for the lever-arm Jacobian.
	wLP geom.Vec3
	// Low-passed sensor-frame specific force used for the Jacobian.
	// Evaluating H with the raw (noisy) IMU sample correlates the
	// regressor with the measurement noise, which lets the filter mine
	// noise as phantom observability of the scale states and collapse
	// its covariance dishonestly; a ~0.5 s low-pass decorrelates them,
	// the standard practice in transfer-alignment filters.
	fsLP    geom.Vec3
	fsLPSet bool
	// Low-passed raw body force for the IMU-scale Jacobian (same
	// decorrelation argument as fsLP, but against the pre-correction
	// measurement the scale states multiply).
	fbLP geom.Vec3
	// Exceedance history ring for adaptation.
	exceed  []bool
	exIdx   int
	exN     int
	steps   int
	gated   int
	gateRun int
	// Innovation-covariance-matching state (AdaptiveR): per-axis sample
	// rings with running sums, and the current per-axis variance
	// estimate R̂.
	ad     AdaptiveConfig
	adRing [2][]float64
	adSum  [2]float64
	adIdx  int
	adN    int
	rhat   [2]float64
	// NIS accumulation over accepted updates (consistency telemetry).
	nisSum float64
	nisN   int
	// Hot-swap reconfiguration count (see Reconfigure).
	reconfigs int
	// Degraded-stream bookkeeping for StepDegraded.
	heldRun     int
	heldUpdates int
	dropouts    int
	// Consecutive 3σ exceedances, bump-recovery events and the
	// post-reopening cooldown countdown.
	exRun        int
	bumps        int
	bumpCooldown int

	// Per-step scratch, allocated once in New. Every position written in
	// StepFull is rewritten on every step (the optional blocks are fixed
	// at construction), so reuse is safe and the hot loop never touches
	// the heap — see TestEstimatorStepAllocFree.
	qd   []float64 // process-noise diagonal
	jacH *mat.Mat  // measurement Jacobian (2×n)
	rMat *mat.Mat  // measurement noise (2×2 diagonal)
	zbuf []float64
	hbuf []float64
	xbuf []float64
}

// bumpThreshold is the consecutive-exceedance run that triggers a
// covariance reopening when BumpRecovery is on. Consistent noise
// produces ~1% exceedances, so a run of this length is (1/100)^25-class
// improbable without a model change.
const bumpThreshold = 25

// bumpCooldownSteps suppresses re-detection after a reopening long
// enough for every axis — including yaw, which needs acceleration
// events — to re-converge before the residuals are judged again.
const bumpCooldownSteps = 2000

// gateBreakthrough is the consecutive-rejection count after which the
// innovation gate yields (see Step).
const gateBreakthrough = 50

// layout describes the error-state arrangement a Config produces:
// total dimension plus the start index of every optional block (-1
// when absent). Shared by New and Reconfigure so the two can never
// disagree about where a block lives.
type layout struct {
	n                                 int
	ibx, iby, isx, isy, ilv, iib, iis int
}

func layoutFor(cfg Config) layout {
	l := layout{ibx: -1, iby: -1, isx: -1, isy: -1, ilv: -1, iib: -1, iis: -1}
	n := 3
	if cfg.EstimateBias {
		l.ibx, l.iby = n, n+1
		n += 2
	}
	if cfg.EstimateScale {
		l.isx, l.isy = n, n+1
		n += 2
	}
	if cfg.EstimateLever {
		l.ilv = n
		n += 3
	}
	if cfg.EstimateIMUBias {
		l.iib = n
		n += 3
	}
	if cfg.EstimateIMUScale {
		l.iis = n
		n += 3
	}
	l.n = n
	return l
}

// validateConfig reports the first invalid field, shared by New (which
// panics — a bad construction config is a programming error) and
// Reconfigure (which returns it — a bad runtime swap must not kill a
// live filter).
func validateConfig(cfg Config) error {
	if cfg.MeasNoise <= 0 {
		return fmt.Errorf("core: MeasNoise must be positive")
	}
	if cfg.InitAngleSigma <= 0 {
		return fmt.Errorf("core: InitAngleSigma must be positive")
	}
	if cfg.EstimateLever && cfg.InitLeverSigma <= 0 {
		return fmt.Errorf("core: InitLeverSigma must be positive with EstimateLever")
	}
	if cfg.EstimateIMUBias && cfg.InitIMUBiasSigma <= 0 {
		return fmt.Errorf("core: InitIMUBiasSigma must be positive with EstimateIMUBias")
	}
	if cfg.EstimateIMUScale && cfg.InitIMUScaleSigma <= 0 {
		return fmt.Errorf("core: InitIMUScaleSigma must be positive with EstimateIMUScale")
	}
	if cfg.AdaptiveR.Enabled {
		ad := cfg.AdaptiveR.resolved(cfg.MeasNoise)
		if ad.FloorSigma >= ad.CeilSigma {
			return fmt.Errorf("core: AdaptiveR FloorSigma %v must be below CeilSigma %v", ad.FloorSigma, ad.CeilSigma)
		}
	}
	return nil
}

// Validate reports whether cfg describes a runnable filter. It is the
// exported form of the check New enforces by panic: serving layers
// (fleet admission, RunMany) validate configurations from the outside
// world here and reject bad ones per scenario instead of letting a
// panic take down the worker.
func Validate(cfg Config) error { return validateConfig(cfg) }

// priorDiagInto fills diag (length l.n) with the configured prior
// variance of every state under the given layout. Allocation-free so
// Reset can reuse per-estimator scratch for it.
func priorDiagInto(diag []float64, cfg Config, l layout) {
	for i := range diag {
		diag[i] = 0
	}
	diag[ixA0] = cfg.InitAngleSigma * cfg.InitAngleSigma
	diag[ixA1] = diag[ixA0]
	diag[ixA2] = diag[ixA0]
	if l.ibx >= 0 {
		diag[l.ibx] = cfg.InitBiasSigma * cfg.InitBiasSigma
		diag[l.iby] = diag[l.ibx]
	}
	if l.isx >= 0 {
		diag[l.isx] = cfg.InitScaleSigma * cfg.InitScaleSigma
		diag[l.isy] = diag[l.isx]
	}
	if l.ilv >= 0 {
		for k := 0; k < 3; k++ {
			diag[l.ilv+k] = cfg.InitLeverSigma * cfg.InitLeverSigma
		}
	}
	if l.iib >= 0 {
		for k := 0; k < 3; k++ {
			diag[l.iib+k] = cfg.InitIMUBiasSigma * cfg.InitIMUBiasSigma
		}
	}
	if l.iis >= 0 {
		for k := 0; k < 3; k++ {
			diag[l.iis+k] = cfg.InitIMUScaleSigma * cfg.InitIMUScaleSigma
		}
	}
}

// applyLayout installs a layout's indices and rebuilds the per-step
// scratch at its dimension.
func (e *Estimator) applyLayout(l layout) {
	e.ibx, e.iby, e.isx, e.isy = l.ibx, l.iby, l.isx, l.isy
	e.ilv, e.iib, e.iis = l.ilv, l.iib, l.iis
	e.n = l.n
	e.qd = make([]float64, l.n)
	e.jacH = mat.New(2, l.n)
	e.xbuf = make([]float64, l.n)
}

// initAdaptive resolves and installs the adaptive-R configuration,
// seeding R̂ at the configured noise (clamped into the adaptive band).
func (e *Estimator) initAdaptive(cfg Config) {
	e.ad = cfg.AdaptiveR.resolved(cfg.MeasNoise)
	if e.ad.Enabled {
		// Reuse the rings across Reset when the window is unchanged —
		// the steady state of a pooled serving runner.
		if len(e.adRing[0]) != e.ad.Window {
			e.adRing[0] = make([]float64, e.ad.Window)
			e.adRing[1] = make([]float64, e.ad.Window)
		} else {
			for i := range e.adRing[0] {
				e.adRing[0][i], e.adRing[1][i] = 0, 0
			}
		}
	} else {
		e.adRing[0], e.adRing[1] = nil, nil
	}
	e.adSum[0], e.adSum[1] = 0, 0
	e.adIdx, e.adN = 0, 0
	r := e.ad.clampVar(cfg.MeasNoise * cfg.MeasNoise)
	e.rhat[0], e.rhat[1] = r, r
}

// New builds an estimator with the given configuration. The initial
// misalignment estimate is zero (sensor assumed aligned) with the
// configured priors.
func New(cfg Config) *Estimator {
	e := &Estimator{}
	if err := e.Reset(cfg); err != nil {
		panic(err.Error())
	}
	return e
}

// Reset re-initialises the estimator in place to exactly the state
// New(cfg) produces, reusing every allocation whose dimension still
// fits. A pooled serving runner resets its estimator once per scenario;
// when consecutive scenarios share the same state layout and adaptive
// window — the steady state of a fleet shard — Reset touches the heap
// not at all, which is what extends the per-epoch zero-allocation
// contract to whole runs. Unlike New it reports an invalid
// configuration as an error instead of panicking: configurations
// arriving over the wire must not kill a worker.
func (e *Estimator) Reset(cfg Config) error {
	if err := validateConfig(cfg); err != nil {
		return err
	}
	l := layoutFor(cfg)
	e.cfg = cfg
	e.att = geom.IdentityQuat()
	if l.n != e.n || e.qd == nil {
		e.applyLayout(l)
		if e.kf == nil {
			e.kf = kalman.New(l.n)
		} else {
			e.kf.Resize(l.n)
		}
	} else {
		// Same dimension, possibly different block arrangement: install
		// the indices and scrub the layout-addressed scratch — predict
		// and stepMeas only rewrite the positions the *current* layout
		// owns, so entries a previous layout wrote must not survive.
		e.ibx, e.iby, e.isx, e.isy = l.ibx, l.iby, l.isx, l.isy
		e.ilv, e.iib, e.iis = l.ilv, l.iib, l.iis
		clear(e.qd)
		e.jacH.Zero()
	}
	e.kf.Reset()
	// The prior diagonal is built in the state-sized xbuf scratch; the
	// next StateInto overwrites it before any step reads it.
	priorDiagInto(e.xbuf, cfg, l)
	e.kf.SetPDiag(e.xbuf)
	e.measNoise = cfg.MeasNoise
	e.wLP, e.fsLP, e.fbLP = geom.Vec3{}, geom.Vec3{}, geom.Vec3{}
	e.fsLPSet = false
	w := cfg.AdaptWindow
	if w <= 0 {
		w = 200
	}
	if len(e.exceed) != w {
		e.exceed = make([]bool, w)
	} else {
		for i := range e.exceed {
			e.exceed[i] = false
		}
	}
	e.exIdx, e.exN = 0, 0
	e.steps, e.gated, e.gateRun = 0, 0, 0
	e.initAdaptive(cfg)
	e.nisSum, e.nisN = 0, 0
	e.reconfigs = 0
	e.heldRun, e.heldUpdates, e.dropouts = 0, 0, 0
	e.exRun, e.bumps, e.bumpCooldown = 0, 0, 0
	if e.rMat == nil {
		e.rMat = mat.New(2, 2)
		e.zbuf = make([]float64, 2)
		e.hbuf = make([]float64, 2)
	} else {
		e.rMat.Zero()
	}
	return nil
}

// Dim returns the filter state dimension.
func (e *Estimator) Dim() int { return e.n }

// SetInitialBias seeds the bias states (from a calibration pass) and
// tightens their prior to the given sigma. No-op when bias states are
// disabled.
func (e *Estimator) SetInitialBias(bx, by, sigma float64) {
	if e.ibx < 0 {
		return
	}
	e.kf.SetStateAt(e.ibx, bx)
	e.kf.SetStateAt(e.iby, by)
	e.kf.SetCovAt(e.ibx, e.ibx, sigma*sigma)
	e.kf.SetCovAt(e.iby, e.iby, sigma*sigma)
}

// Step processes one synchronised measurement pair: the IMU's body-axis
// specific force and the ACC's two sensor-axis readings, dt seconds
// after the previous step. It returns the innovation statistics (the
// residuals and 3σ envelope of the paper's Figure 8). Angular rate is
// taken as zero; use StepFull to feed the gyros (required when lever-arm
// states are enabled).
func (e *Estimator) Step(dt float64, fBody geom.Vec3, accX, accY float64) (kalman.Innovation, error) {
	return e.StepFull(dt, fBody, geom.Vec3{}, accX, accY)
}

// StepFull is Step with the IMU's measured body angular rate, which the
// lever-arm model needs: the ACC's location feels the extra centripetal
// acceleration ω×(ω×r) relative to the IMU.
func (e *Estimator) StepFull(dt float64, fBody, omega geom.Vec3, accX, accY float64) (kalman.Innovation, error) {
	return e.stepMeas(dt, fBody, omega, accX, accY, 1)
}

// StepDegraded is StepFull with an explicit measurement quality, the
// entry point for dropout-aware fusion: fresh samples take the normal
// path, held (sample-and-hold) samples are de-weighted by inflating
// their measurement noise with the length of the hold run, and dropout
// epochs run the time update only so the covariance — and the 3σ
// confidence the paper reports — keeps growing while the stream is
// down. The returned Innovation is zero-valued on a dropout epoch.
func (e *Estimator) StepDegraded(dt float64, fBody, omega geom.Vec3, accX, accY float64, q Quality) (kalman.Innovation, error) {
	switch q {
	case QualityDropout:
		if dt <= 0 {
			return kalman.Innovation{}, fmt.Errorf("core: non-positive dt %v", dt)
		}
		e.predict(dt)
		e.dropouts++
		// A dropout ends any hold run: the supervisor only re-admits
		// values after a fresh packet, so the next held sample replays a
		// recently-fresh value and must start its inflation ramp at 1×
		// rather than resume a stale capped run.
		e.heldRun = 0
		return kalman.Innovation{}, nil
	case QualityHeld:
		e.heldRun++
		e.heldUpdates++
		inflate := 1.0
		if e.cfg.HeldInflation > 0 {
			inflate = 1 + float64(e.cfg.HeldInflation*float64(e.heldRun))
			if inflate > maxHeldInflation {
				inflate = maxHeldInflation
			}
		}
		return e.stepMeas(dt, fBody, omega, accX, accY, inflate)
	default:
		e.heldRun = 0
		return e.stepMeas(dt, fBody, omega, accX, accY, 1)
	}
}

// predict advances the random-walk process model by dt.
func (e *Estimator) predict(dt float64) {
	qa := e.cfg.AngleWalk * e.cfg.AngleWalk * dt
	e.qd[ixA0] = qa
	e.qd[ixA1] = qa
	e.qd[ixA2] = qa
	if e.ibx >= 0 {
		qb := e.cfg.BiasWalk * e.cfg.BiasWalk * dt
		e.qd[e.ibx] = qb
		e.qd[e.iby] = qb
	}
	if e.isx >= 0 {
		qs := e.cfg.ScaleWalk * e.cfg.ScaleWalk * dt
		e.qd[e.isx] = qs
		e.qd[e.isy] = qs
	}
	if e.ilv >= 0 {
		ql := e.cfg.LeverWalk * e.cfg.LeverWalk * dt
		for k := 0; k < 3; k++ {
			e.qd[e.ilv+k] = ql
		}
	}
	if e.iib >= 0 {
		qib := e.cfg.IMUBiasWalk * e.cfg.IMUBiasWalk * dt
		for k := 0; k < 3; k++ {
			e.qd[e.iib+k] = qib
		}
	}
	if e.iis >= 0 {
		qis := e.cfg.IMUScaleWalk * e.cfg.IMUScaleWalk * dt
		for k := 0; k < 3; k++ {
			e.qd[e.iis+k] = qis
		}
	}
	e.kf.PredictAdditive(e.qd)
}

// stepMeas is the shared measurement path; inflate multiplies the
// measurement noise σ (1 for a fresh sample).
func (e *Estimator) stepMeas(dt float64, fBody, omega geom.Vec3, accX, accY, inflate float64) (kalman.Innovation, error) {
	if dt <= 0 {
		return kalman.Innovation{}, fmt.Errorf("core: non-positive dt %v", dt)
	}
	e.predict(dt)

	e.kf.StateInto(e.xbuf)
	x := e.xbuf

	// Self-calibration: strip the estimated IMU instrument errors from
	// the measured body force before it is used as the reference —
	// f_true = f_meas − β − diag(m)·f_meas.
	fRef := fBody
	if e.iib >= 0 {
		fRef = fRef.Sub(geom.Vec3{x[e.iib], x[e.iib+1], x[e.iib+2]})
	}
	if e.iis >= 0 {
		fRef = fRef.Sub(geom.Vec3{x[e.iis] * fBody[0], x[e.iis+1] * fBody[1], x[e.iis+2] * fBody[2]})
	}

	// Body-frame force at the ACC's location: the corrected IMU
	// measurement plus the centripetal difference over the estimated
	// lever arm.
	fAtACC := fRef
	if e.ilv >= 0 {
		r := geom.Vec3{x[e.ilv], x[e.ilv+1], x[e.ilv+2]}
		fAtACC = fAtACC.Add(omega.Cross(omega.Cross(r)))
	}

	// Predicted sensor-frame specific force at the current linearisation
	// point, and its low-passed version for the Jacobian.
	fs := e.att.Conj().Apply(fAtACC)
	const tau = 0.5 // seconds
	alpha := dt / (tau + dt)
	if !e.fsLPSet {
		e.fsLP = fs
		e.wLP = omega
		e.fbLP = fBody
		e.fsLPSet = true
	} else {
		e.fsLP = e.fsLP.Add(fs.Sub(e.fsLP).Scale(alpha))
		e.wLP = e.wLP.Add(omega.Sub(e.wLP).Scale(alpha))
		e.fbLP = e.fbLP.Add(fBody.Sub(e.fbLP).Scale(alpha))
	}
	fj := e.fsLP
	bx, by, sx, sy := 0.0, 0.0, 0.0, 0.0
	if e.ibx >= 0 {
		bx, by = x[e.ibx], x[e.iby]
	}
	if e.isx >= 0 {
		sx, sy = x[e.isx], x[e.isy]
	}
	e.hbuf[0] = float64((1+sx)*fs[0]) + bx
	e.hbuf[1] = float64((1+sy)*fs[1]) + by
	h := e.hbuf
	// Jacobian: f_s(true) = (I − [δa×])·f̂_s = f̂_s + [f̂_s×]·δa,
	// evaluated with the low-passed force (see fsLP).
	H := e.jacH
	H.Set(0, ixA0, 0)
	H.Set(0, ixA1, (1+sx)*(-fj[2]))
	H.Set(0, ixA2, (1+sx)*fj[1])
	H.Set(1, ixA0, (1+sy)*fj[2])
	H.Set(1, ixA1, 0)
	H.Set(1, ixA2, (1+sy)*(-fj[0]))
	if e.ibx >= 0 {
		H.Set(0, e.ibx, 1)
		H.Set(1, e.iby, 1)
	}
	if e.isx >= 0 {
		H.Set(0, e.isx, fj[0])
		H.Set(1, e.isy, fj[1])
	}
	if e.ilv >= 0 {
		// ∂(ω×(ω×r))/∂r = ωωᵀ − |ω|²I, rotated into the sensor frame;
		// the low-passed rate keeps the regressor decorrelated from
		// gyro noise (same reasoning as fsLP).
		w := e.wLP
		w2 := w.Dot(w)
		for j := 0; j < 3; j++ {
			col := w.Scale(w[j])
			col[j] -= w2
			rot := e.att.Conj().Apply(col)
			H.Set(0, e.ilv+j, (1+sx)*rot[0])
			H.Set(1, e.ilv+j, (1+sy)*rot[1])
		}
	}
	if e.iib >= 0 || e.iis >= 0 {
		// IMU self-calibration columns. With C = Ĉ_b2s the measurement
		// depends on the body force through (1+s_row)·(C·f_true)[row],
		// and f_true = f_meas − β − diag(m)·f_meas, so
		// ∂h_row/∂β_j = −(1+s_row)·C[row,j] and
		// ∂h_row/∂m_j = −(1+s_row)·C[row,j]·f_meas[j] (low-passed, as
		// with every force regressor — see fbLP).
		cq := e.att.Conj()
		for j := 0; j < 3; j++ {
			var ej geom.Vec3
			ej[j] = 1
			col := cq.Apply(ej)
			if e.iib >= 0 {
				H.Set(0, e.iib+j, -(1+sx)*col[0])
				H.Set(1, e.iib+j, -(1+sy)*col[1])
			}
			if e.iis >= 0 {
				H.Set(0, e.iis+j, -(1+sx)*col[0]*e.fbLP[j])
				H.Set(1, e.iis+j, -(1+sy)*col[1]*e.fbLP[j])
			}
		}
	}
	r0, r1 := e.measVar()
	inf2 := inflate * inflate
	e.rMat.Set(0, 0, r0*inf2)
	e.rMat.Set(1, 1, r1*inf2)
	R := e.rMat
	e.zbuf[0], e.zbuf[1] = accX, accY
	z := e.zbuf

	// Innovation gate: an outlier that slipped past the transport
	// checksums would slam the state; reject anything implausibly far
	// outside the innovation covariance (GateSigma on the Mahalanobis
	// distance, Chi2Gate on its square — the chi-square test). A long
	// unbroken run of rejections means the filter itself is wrong (gate
	// lockout, e.g. after covariance over-collapse), so the gate breaks
	// through and accepts a measurement to let the filter re-converge —
	// isolated outliers can essentially never produce such a run. The
	// one innovation serves the gate and, through Commit, the update.
	inn, err := e.kf.InnovationOnly(z, h, H, R)
	if err != nil {
		return inn, err
	}
	if e.cfg.GateSigma > 0 || e.cfg.Chi2Gate > 0 {
		reject := (e.cfg.GateSigma > 0 && inn.Mahalanobis > e.cfg.GateSigma) ||
			(e.cfg.Chi2Gate > 0 && inn.Chi2() > e.cfg.Chi2Gate)
		if reject && e.gateRun < gateBreakthrough {
			e.gated++
			e.gateRun++
			e.steps++
			// A gated measurement is by construction a 3σ exceedance;
			// a sustained run of them is the bump signature.
			e.noteBump(true)
			return inn, nil
		}
		e.gateRun = 0
	}
	e.kf.Commit()

	// Fold the small-angle correction into the attitude and zero it in
	// the error state, keeping the linearisation point current.
	e.kf.StateInto(e.xbuf)
	x = e.xbuf
	da := geom.Vec3{x[ixA0], x[ixA1], x[ixA2]}
	if n := da.Norm(); n > 0 {
		e.att = e.att.Mul(geom.QuatFromAxisAngle(da, n))
	}
	x[ixA0], x[ixA1], x[ixA2] = 0, 0, 0
	e.kf.SetState(x)

	e.steps++
	e.nisSum += inn.Chi2()
	e.nisN++
	if e.ad.Enabled {
		// Only accepted fresh epochs feed the covariance matcher: a held
		// sample's inflated R is a transport artefact, not evidence about
		// the sensor's noise environment.
		if inflate == 1 {
			e.adaptR(inn)
		}
	} else if e.cfg.Adaptive {
		e.adapt(inn)
	}
	e.noteBump(inn.Exceeds3Sigma())
	return inn, nil
}

// noteBump tracks the consecutive-exceedance run and reopens the angle
// covariance when a mounting disturbance is the only plausible cause.
func (e *Estimator) noteBump(exceeded bool) {
	if !e.cfg.BumpRecovery {
		return
	}
	if e.bumpCooldown > 0 {
		e.bumpCooldown--
		e.exRun = 0
		return
	}
	if !exceeded {
		e.exRun = 0
		return
	}
	e.exRun++
	if e.exRun >= bumpThreshold {
		e.reopenAngles()
		e.exRun = 0
		e.bumpCooldown = bumpCooldownSteps
	}
}

// reopenAngles resets the misalignment covariance to the prior and
// severs the angle states' cross-covariances — the knock invalidated
// everything the filter had learned about the angles, including their
// correlations with the instrument states (which remain valid, because
// the instruments did not change).
func (e *Estimator) reopenAngles() {
	p := e.kf.P()
	v := e.cfg.InitAngleSigma * e.cfg.InitAngleSigma
	for i := 0; i < 3; i++ {
		for j := 0; j < e.n; j++ {
			p.Set(i, j, 0)
			p.Set(j, i, 0)
		}
	}
	for i := 0; i < 3; i++ {
		p.Set(i, i, v)
	}
	e.kf.SetP(p)
	e.bumps++
}

// Bumps returns how many covariance reopenings the bump detector has
// triggered.
func (e *Estimator) Bumps() int { return e.bumps }

// Misalignment returns the current boresight estimate as roll/pitch/yaw
// of the sensor frame relative to the vehicle body.
func (e *Estimator) Misalignment() geom.Euler { return e.att.Euler() }

// AngleSigmas returns the 1σ uncertainty of the three misalignment
// angles (rad); the paper's confidence figures are 3× these.
func (e *Estimator) AngleSigmas() geom.Vec3 {
	return geom.Vec3{e.kf.Sigma(ixA0), e.kf.Sigma(ixA1), e.kf.Sigma(ixA2)}
}

// Biases returns the estimated ACC biases (0, 0 when disabled).
func (e *Estimator) Biases() (bx, by float64) {
	if e.ibx < 0 {
		return 0, 0
	}
	return e.kf.StateAt(e.ibx), e.kf.StateAt(e.iby)
}

// BiasSigmas returns the 1σ uncertainty of the bias states.
func (e *Estimator) BiasSigmas() (sx, sy float64) {
	if e.ibx < 0 {
		return 0, 0
	}
	return e.kf.Sigma(e.ibx), e.kf.Sigma(e.iby)
}

// Scales returns the estimated ACC scale-factor errors (0, 0 when
// disabled).
func (e *Estimator) Scales() (sx, sy float64) {
	if e.isx < 0 {
		return 0, 0
	}
	x := e.kf.State()
	return x[e.isx], x[e.isy]
}

// Lever returns the estimated lever arm (zero vector when disabled).
func (e *Estimator) Lever() geom.Vec3 {
	if e.ilv < 0 {
		return geom.Vec3{}
	}
	return geom.Vec3{e.kf.StateAt(e.ilv), e.kf.StateAt(e.ilv + 1), e.kf.StateAt(e.ilv + 2)}
}

// LeverSigmas returns the 1σ uncertainty of the lever-arm states.
func (e *Estimator) LeverSigmas() geom.Vec3 {
	if e.ilv < 0 {
		return geom.Vec3{}
	}
	return geom.Vec3{e.kf.Sigma(e.ilv), e.kf.Sigma(e.ilv + 1), e.kf.Sigma(e.ilv + 2)}
}

// IMUBias returns the estimated IMU accelerometer bias (zero vector
// when the states are disabled).
func (e *Estimator) IMUBias() geom.Vec3 {
	if e.iib < 0 {
		return geom.Vec3{}
	}
	return geom.Vec3{e.kf.StateAt(e.iib), e.kf.StateAt(e.iib + 1), e.kf.StateAt(e.iib + 2)}
}

// IMUBiasSigmas returns the 1σ uncertainty of the IMU bias states.
func (e *Estimator) IMUBiasSigmas() geom.Vec3 {
	if e.iib < 0 {
		return geom.Vec3{}
	}
	return geom.Vec3{e.kf.Sigma(e.iib), e.kf.Sigma(e.iib + 1), e.kf.Sigma(e.iib + 2)}
}

// IMUScales returns the estimated IMU scale-factor errors (zero vector
// when the states are disabled).
func (e *Estimator) IMUScales() geom.Vec3 {
	if e.iis < 0 {
		return geom.Vec3{}
	}
	return geom.Vec3{e.kf.StateAt(e.iis), e.kf.StateAt(e.iis + 1), e.kf.StateAt(e.iis + 2)}
}

// IMUScaleSigmas returns the 1σ uncertainty of the IMU scale states.
func (e *Estimator) IMUScaleSigmas() geom.Vec3 {
	if e.iis < 0 {
		return geom.Vec3{}
	}
	return geom.Vec3{e.kf.Sigma(e.iis), e.kf.Sigma(e.iis + 1), e.kf.Sigma(e.iis + 2)}
}

// MeasNoise returns the current (possibly adapted) scalar measurement
// noise σ used when AdaptiveR is off; with AdaptiveR on, see RHat for
// the per-axis estimate.
func (e *Estimator) MeasNoise() float64 { return e.measNoise }

// Steps returns the number of measurement updates processed.
func (e *Estimator) Steps() int { return e.steps }

// Gated returns the number of measurements the innovation gate rejected.
func (e *Estimator) Gated() int { return e.gated }

// Dropouts returns the number of dropout epochs (time-update-only steps)
// StepDegraded has processed.
func (e *Estimator) Dropouts() int { return e.dropouts }

// HeldUpdates returns the number of held (noise-inflated) measurement
// updates StepDegraded has processed.
func (e *Estimator) HeldUpdates() int { return e.heldUpdates }

// HeldRun returns the current consecutive-held-sample count (reset by
// each fresh sample).
func (e *Estimator) HeldRun() int { return e.heldRun }

// adapt implements the paper's residual-driven noise tuning: residuals
// should exceed their 3σ envelope about once per hundred samples; a much
// higher rate means the modelled noise is too small for the environment
// (vehicle vibration), so σ is inflated. When the rate falls back the
// noise decays toward the configured floor.
func (e *Estimator) adapt(inn kalman.Innovation) {
	e.exceed[e.exIdx] = inn.Exceeds3Sigma()
	e.exIdx = (e.exIdx + 1) % len(e.exceed)
	if e.exN < len(e.exceed) {
		e.exN++
		return // wait for a full window before adapting
	}
	count := 0
	for _, b := range e.exceed {
		if b {
			count++
		}
	}
	rate := float64(count) / float64(len(e.exceed))
	switch {
	case rate > 0.05:
		e.measNoise = math.Min(e.measNoise*1.05, 10*e.cfg.MeasNoise)
	case rate < 0.005 && e.measNoise > e.cfg.MeasNoise:
		e.measNoise = math.Max(e.measNoise*0.995, e.cfg.MeasNoise)
	}
}
