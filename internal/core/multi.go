package core

import (
	"fmt"
	"math"

	"boresight/internal/geom"
	"boresight/internal/kalman"
	"boresight/internal/mat"
)

// MultiEstimator implements the paper's proposed extension (Section
// 12): "the fusion engine … can readily be extended to fuse data from
// multiple sensors together (eg. lidar and video) to provide low-cost
// situational awareness" — the self-aligning, self-referencing
// multi-sensor case. Each instrumented sensor carries its own two-axis
// accelerometer; a single joint filter estimates every sensor's
// misalignment relative to the IMU simultaneously, processing all
// readings in one stacked update so cross-sensor correlations are
// carried, and exposes the *relative* alignment between any sensor pair
// (what fusing lidar returns with camera pixels actually requires).
type MultiEstimator struct {
	cfg     Config
	kf      *kalman.Filter
	sensors []sensorBlock
	per     int // states per sensor
	// Resolved adaptive-R configuration; each sensor carries its own
	// innovation window so a noisy lidar is de-weighted without touching
	// the camera's R.
	ad AdaptiveConfig
	// Shared low-passed sensor-frame force per sensor for the Jacobian.
	steps int
	// Degraded-stream telemetry (see Reading.Held and dropout epochs).
	heldUpdates   int
	dropoutEpochs int

	// Per-epoch scratch, allocated once in NewMulti. The stacked z/h/R
	// diagonal buffers have capacity for every sensor; the full Jacobian
	// and noise matrices serve the all-sensors-valid fast path (the
	// steady state), where the set of written positions is identical
	// every epoch. Dropout epochs change the stacked dimension, so they
	// fall back to allocating right-sized matrices — rare by
	// construction, and correctness never depends on the fast path.
	qd    []float64 // process-noise diagonal
	xbuf  []float64
	zbuf  []float64
	hbuf  []float64
	rbuf  []float64
	hFull *mat.Mat // 2S×n Jacobian
	rFull *mat.Mat // 2S×2S noise (off-diagonals stay zero)
}

type sensorBlock struct {
	att     geom.Quat // estimated sensor-to-body rotation
	base    int       // first state index of this sensor's block
	fsLP    geom.Vec3
	fsLPSet bool
	heldRun int // consecutive held samples (noise-inflation ramp)
	// Per-sensor innovation-covariance-matching state (AdaptiveR).
	adRing [2][]float64
	adSum  [2]float64
	adIdx  int
	adN    int
	rhat   [2]float64
}

// NewMulti builds a joint estimator for n sensors, each modelled with
// the same per-sensor configuration.
func NewMulti(n int, cfg Config) *MultiEstimator {
	if n < 1 {
		panic("core: NewMulti needs at least one sensor")
	}
	if err := validateConfig(cfg); err != nil {
		panic(err.Error())
	}
	per := 3
	if cfg.EstimateBias {
		per += 2
	}
	if cfg.EstimateScale {
		per += 2
	}
	m := &MultiEstimator{cfg: cfg, per: per}
	m.ad = cfg.AdaptiveR.resolved(cfg.MeasNoise)
	m.kf = kalman.New(n * per)
	diag := make([]float64, n*per)
	for s := 0; s < n; s++ {
		base := s * per
		blk := sensorBlock{att: geom.IdentityQuat(), base: base}
		if m.ad.Enabled {
			blk.adRing[0] = make([]float64, m.ad.Window)
			blk.adRing[1] = make([]float64, m.ad.Window)
		}
		r := m.ad.clampVar(cfg.MeasNoise * cfg.MeasNoise)
		blk.rhat[0], blk.rhat[1] = r, r
		m.sensors = append(m.sensors, blk)
		diag[base] = cfg.InitAngleSigma * cfg.InitAngleSigma
		diag[base+1] = diag[base]
		diag[base+2] = diag[base]
		idx := base + 3
		if cfg.EstimateBias {
			diag[idx] = cfg.InitBiasSigma * cfg.InitBiasSigma
			diag[idx+1] = diag[idx]
			idx += 2
		}
		if cfg.EstimateScale {
			diag[idx] = cfg.InitScaleSigma * cfg.InitScaleSigma
			diag[idx+1] = diag[idx]
		}
	}
	m.kf.SetP(mat.Diag(diag...))
	m.qd = make([]float64, n*per)
	m.xbuf = make([]float64, n*per)
	m.zbuf = make([]float64, 0, 2*n)
	m.hbuf = make([]float64, 0, 2*n)
	m.rbuf = make([]float64, 0, 2*n)
	m.hFull = mat.New(2*n, n*per)
	m.rFull = mat.New(2*n, 2*n)
	return m
}

// Sensors returns the number of jointly estimated sensors.
func (m *MultiEstimator) Sensors() int { return len(m.sensors) }

// Reading is one sensor's ACC sample for a Step; Valid false marks a
// dropout (that sensor contributes no rows this update). Held marks a
// sample-and-hold replay of the last good value: the row still enters
// the stacked update, but with its measurement noise inflated by the
// length of the hold run (Config.HeldInflation), so a briefly silent
// sensor degrades gracefully instead of being trusted at full
// confidence or dropped outright.
type Reading struct {
	FX, FY float64
	Valid  bool
	Held   bool
}

// Step processes one synchronised epoch: the shared IMU specific force
// and one reading per sensor, as a single stacked measurement update.
func (m *MultiEstimator) Step(dt float64, fBody geom.Vec3, readings []Reading) error {
	if dt <= 0 {
		return fmt.Errorf("core: non-positive dt %v", dt)
	}
	if len(readings) != len(m.sensors) {
		return fmt.Errorf("core: %d readings for %d sensors", len(readings), len(m.sensors))
	}
	n := m.kf.Dim()

	// Process noise.
	for s := range m.sensors {
		base := m.sensors[s].base
		qa := m.cfg.AngleWalk * m.cfg.AngleWalk * dt
		m.qd[base] = qa
		m.qd[base+1] = qa
		m.qd[base+2] = qa
		idx := base + 3
		if m.cfg.EstimateBias {
			qb := m.cfg.BiasWalk * m.cfg.BiasWalk * dt
			m.qd[idx] = qb
			m.qd[idx+1] = qb
			idx += 2
		}
		if m.cfg.EstimateScale {
			qs := m.cfg.ScaleWalk * m.cfg.ScaleWalk * dt
			m.qd[idx] = qs
			m.qd[idx+1] = qs
		}
	}
	m.kf.PredictAdditive(m.qd)

	// Count active rows.
	active := 0
	for _, r := range readings {
		if r.Valid {
			active++
		}
	}
	m.steps++
	if active == 0 {
		// A full dropout epoch: the time update above already ran, so
		// every sensor's covariance keeps growing honestly.
		m.dropoutEpochs++
		return nil
	}

	m.kf.StateInto(m.xbuf)
	x := m.xbuf
	z := m.zbuf[:0]
	h := m.hbuf[:0]
	rdiag := m.rbuf[:0]
	// Fast path: every sensor valid (the steady state) reuses the full
	// Jacobian — the positions written below are the same every full
	// epoch, so stale contents are always overwritten. A dropout epoch
	// has a different stacked shape and allocates a right-sized matrix.
	var H *mat.Mat
	if active == len(m.sensors) {
		H = m.hFull
	} else {
		H = mat.New(2*active, n)
	}
	row := 0
	const tau = 0.5
	alpha := dt / (tau + dt)
	for s := range m.sensors {
		blk := &m.sensors[s]
		fs := blk.att.Conj().Apply(fBody)
		if !blk.fsLPSet {
			blk.fsLP, blk.fsLPSet = fs, true
		} else {
			blk.fsLP = blk.fsLP.Add(fs.Sub(blk.fsLP).Scale(alpha))
		}
		if !readings[s].Valid {
			// An invalid (dropout) reading ends this sensor's hold run:
			// the next held sample replays a recently-fresh value and
			// must restart its inflation ramp at 1×.
			blk.heldRun = 0
			continue
		}
		inflate := 1.0
		if readings[s].Held {
			blk.heldRun++
			m.heldUpdates++
			if m.cfg.HeldInflation > 0 {
				inflate = 1 + float64(m.cfg.HeldInflation*float64(blk.heldRun))
				if inflate > maxHeldInflation {
					inflate = maxHeldInflation
				}
			}
		} else {
			blk.heldRun = 0
		}
		fj := blk.fsLP
		base := blk.base
		bx, by, sx, sy := 0.0, 0.0, 0.0, 0.0
		idx := base + 3
		ib := -1
		if m.cfg.EstimateBias {
			ib = idx
			bx, by = x[idx], x[idx+1]
			idx += 2
		}
		is := -1
		if m.cfg.EstimateScale {
			is = idx
			sx, sy = x[idx], x[idx+1]
		}
		z = append(z, readings[s].FX, readings[s].FY)
		h = append(h, float64((1+sx)*fs[0])+bx, float64((1+sy)*fs[1])+by)
		H.Set(row, base+1, (1+sx)*(-fj[2]))
		H.Set(row, base+2, (1+sx)*fj[1])
		H.Set(row+1, base, (1+sy)*fj[2])
		H.Set(row+1, base+2, (1+sy)*(-fj[0]))
		if ib >= 0 {
			H.Set(row, ib, 1)
			H.Set(row+1, ib+1, 1)
		}
		if is >= 0 {
			H.Set(row, is, fj[0])
			H.Set(row+1, is+1, fj[1])
		}
		r0 := m.cfg.MeasNoise * m.cfg.MeasNoise
		r1 := r0
		if m.ad.Enabled {
			r0, r1 = blk.rhat[0], blk.rhat[1]
		}
		inf2 := inflate * inflate
		rdiag = append(rdiag, r0*inf2, r1*inf2)
		row += 2
	}

	var R *mat.Mat
	if active == len(m.sensors) {
		R = m.rFull
		for i, v := range rdiag {
			R.Set(i, i, v)
		}
	} else {
		R = mat.Diag(rdiag...)
	}
	inn, err := m.kf.Update(z, h, H, R)
	if err != nil {
		return err
	}
	if m.ad.Enabled {
		m.adaptRMulti(inn, readings, rdiag)
	}

	// Fold each sensor's angle correction and zero its error state.
	m.kf.StateInto(m.xbuf)
	x = m.xbuf
	for s := range m.sensors {
		base := m.sensors[s].base
		da := geom.Vec3{x[base], x[base+1], x[base+2]}
		if nn := da.Norm(); nn > 0 {
			m.sensors[s].att = m.sensors[s].att.Mul(geom.QuatFromAxisAngle(da, nn))
		}
		x[base], x[base+1], x[base+2] = 0, 0, 0
	}
	m.kf.SetState(x)
	return nil
}

// Misalignment returns sensor i's estimated misalignment relative to
// the IMU/vehicle.
func (m *MultiEstimator) Misalignment(i int) geom.Euler {
	return m.sensors[i].att.Euler()
}

// AngleSigmas returns the 1σ uncertainties of sensor i's angles.
func (m *MultiEstimator) AngleSigmas(i int) geom.Vec3 {
	base := m.sensors[i].base
	return geom.Vec3{m.kf.Sigma(base), m.kf.Sigma(base + 1), m.kf.Sigma(base + 2)}
}

// Relative returns the rotation taking sensor j's frame to sensor i's
// frame — the cross-sensor alignment needed to overlay their data (e.g.
// lidar returns onto camera pixels) — with a conservative combined 1σ
// per axis.
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

// HeldUpdates returns the number of held (noise-inflated) sensor rows
// processed across all epochs.
func (m *MultiEstimator) HeldUpdates() int { return m.heldUpdates }

// adaptRMulti feeds each sensor's fresh rows of the stacked innovation
// into that sensor's covariance-matching window (see AdaptiveConfig).
// Held rows are skipped — their inflated R is a transport artefact —
// and a non-finite sample skips that sensor's epoch. Allocation-free:
// the rings live in the sensor blocks.
func (m *MultiEstimator) adaptRMulti(inn kalman.Innovation, readings []Reading, rdiag []float64) {
	w := m.ad.Window
	row := 0
	for s := range m.sensors {
		if !readings[s].Valid {
			continue
		}
		if readings[s].Held {
			row += 2
			continue
		}
		blk := &m.sensors[s]
		var samp [2]float64
		finite := true
		for j := 0; j < 2; j++ {
			nu := inn.Residual[row+j]
			v := float64(nu*nu) - (inn.S.At(row+j, row+j) - rdiag[row+j])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
			samp[j] = v
		}
		row += 2
		if !finite {
			continue
		}
		for j := 0; j < 2; j++ {
			blk.adSum[j] += samp[j] - blk.adRing[j][blk.adIdx]
			blk.adRing[j][blk.adIdx] = samp[j]
		}
		blk.adIdx = (blk.adIdx + 1) % w
		if blk.adN < w {
			blk.adN++
			continue
		}
		for j := 0; j < 2; j++ {
			target := m.ad.clampVar(blk.adSum[j] / float64(w))
			blk.rhat[j] = m.ad.clampVar(float64(m.ad.Forget*blk.rhat[j]) + float64((1-m.ad.Forget)*target))
		}
	}
}

// RHat returns sensor i's current per-axis measurement-noise estimate
// σ̂ (the configured noise on both axes when AdaptiveR is off).
func (m *MultiEstimator) RHat(i int) (sx, sy float64) {
	if !m.ad.Enabled {
		return m.cfg.MeasNoise, m.cfg.MeasNoise
	}
	blk := &m.sensors[i]
	return math.Sqrt(blk.rhat[0]), math.Sqrt(blk.rhat[1])
}
