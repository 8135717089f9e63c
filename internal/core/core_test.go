package core

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/geom"
	"boresight/internal/traj"
)

// accReading computes an exact ACC measurement for a true misalignment,
// instrument bias and scale error, given the body specific force.
func accReading(mis geom.Euler, f geom.Vec3, bx, by, sx, sy float64) (float64, float64) {
	fs := mis.DCM().T().Apply(f)
	return (1+sx)*fs[0] + bx, (1+sy)*fs[1] + by
}

// levelForce is the body specific force on a level static platform.
func levelForce() geom.Vec3 { return geom.Vec3{0, 0, -traj.Gravity} }

// tiltForce returns the body specific force for a platform pitched or
// rolled to the given attitude.
func tiltForce(att geom.Euler) geom.Vec3 {
	return (traj.StaticPose{Attitude: att, Dur: 1}).At(0).SpecificForce()
}

func anglesOnlyConfig() Config {
	cfg := DefaultConfig()
	cfg.EstimateBias = false
	cfg.EstimateScale = false
	return cfg
}

func TestPitchRollRecoveryLevelPose(t *testing.T) {
	mis := geom.EulerDeg(1.5, -2.0, 0)
	e := New(anglesOnlyConfig())
	f := levelForce()
	for i := 0; i < 3000; i++ {
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Misalignment()
	if math.Abs(got.Roll-mis.Roll) > geom.Deg2Rad(0.01) {
		t.Fatalf("roll = %v, want %v", geom.Rad2Deg(got.Roll), 1.5)
	}
	if math.Abs(got.Pitch-mis.Pitch) > geom.Deg2Rad(0.01) {
		t.Fatalf("pitch = %v, want %v", geom.Rad2Deg(got.Pitch), -2.0)
	}
	// Yaw is only weakly observable on a level platform (the residual
	// coupling is O(g × misalignment), not O(g)): its sigma must remain
	// orders of magnitude above the roll/pitch sigmas.
	s := e.AngleSigmas()
	if s[2] < geom.Deg2Rad(0.2) || s[2] < 20*math.Max(s[0], s[1]) {
		t.Fatalf("yaw sigma %v° collapsed without strong observability (roll %v°, pitch %v°)",
			geom.Rad2Deg(s[2]), geom.Rad2Deg(s[0]), geom.Rad2Deg(s[1]))
	}
	if s[0] > geom.Deg2Rad(0.5) || s[1] > geom.Deg2Rad(0.5) {
		t.Fatalf("roll/pitch sigmas %v %v did not collapse", s[0], s[1])
	}
}

func TestFullRecoveryMultiPoseStatic(t *testing.T) {
	// Alternating tilted poses make all three angles observable — the
	// paper's "platform must be oriented" remark for roll/yaw tests.
	mis := geom.EulerDeg(1.0, 2.0, -1.5)
	e := New(anglesOnlyConfig())
	poses := []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 20, 0),
		geom.EulerDeg(0, -20, 0),
		geom.EulerDeg(20, 0, 0),
	}
	for i := 0; i < 6000; i++ {
		f := tiltForce(poses[(i/500)%len(poses)])
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Misalignment()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"roll", got.Roll, mis.Roll},
		{"pitch", got.Pitch, mis.Pitch},
		{"yaw", got.Yaw, mis.Yaw},
	} {
		if math.Abs(c.got-c.want) > geom.Deg2Rad(0.02) {
			t.Errorf("%s = %v°, want %v°", c.name, geom.Rad2Deg(c.got), geom.Rad2Deg(c.want))
		}
	}
}

func TestYawRecoveryUnderDynamics(t *testing.T) {
	// Longitudinal acceleration makes yaw observable — the dynamic test.
	mis := geom.EulerDeg(0.5, -0.8, 2.0)
	e := New(anglesOnlyConfig())
	d := traj.CityDrive("city", 120)
	dt := 0.01
	for ti := 0.0; ti < d.Duration(); ti += dt {
		f := d.At(ti).SpecificForce()
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		if _, err := e.Step(dt, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Misalignment()
	if math.Abs(got.Yaw-mis.Yaw) > geom.Deg2Rad(0.05) {
		t.Fatalf("yaw = %v°, want 2.0°", geom.Rad2Deg(got.Yaw))
	}
	if math.Abs(got.Roll-mis.Roll) > geom.Deg2Rad(0.05) {
		t.Fatalf("roll = %v°, want 0.5°", geom.Rad2Deg(got.Roll))
	}
}

func TestLargeMisalignmentNonlinearFolding(t *testing.T) {
	// 8° misalignment: far outside the small-angle regime of a single
	// linearisation, but the multiplicative error-state filter must
	// still converge without bias.
	mis := geom.EulerDeg(8, -7, 6)
	cfg := anglesOnlyConfig()
	cfg.InitAngleSigma = geom.Deg2Rad(15)
	e := New(cfg)
	poses := []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 25, 0),
		geom.EulerDeg(25, 0, 0),
		geom.EulerDeg(0, -25, 0),
	}
	for i := 0; i < 8000; i++ {
		f := tiltForce(poses[(i/400)%len(poses)])
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Misalignment()
	if math.Abs(got.Roll-mis.Roll) > geom.Deg2Rad(0.05) ||
		math.Abs(got.Pitch-mis.Pitch) > geom.Deg2Rad(0.05) ||
		math.Abs(got.Yaw-mis.Yaw) > geom.Deg2Rad(0.05) {
		r, p, y := got.Deg()
		t.Fatalf("estimate (%v, %v, %v)°, want (8, -7, 6)°", r, p, y)
	}
}

func TestBiasSeparation(t *testing.T) {
	// With pose diversity, bias and misalignment are separately
	// observable: the angle signal scales with the rotated gravity
	// vector while the bias is constant.
	mis := geom.EulerDeg(1.2, -0.7, 0.9)
	bx, by := 0.04, -0.03
	cfg := DefaultConfig()
	cfg.EstimateScale = false
	e := New(cfg)
	rng := rand.New(rand.NewSource(1))
	poses := []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 30, 0),
		geom.EulerDeg(0, -30, 0),
		geom.EulerDeg(30, 0, 0),
		geom.EulerDeg(-30, 0, 0),
	}
	noise := 0.005
	for i := 0; i < 30000; i++ {
		f := tiltForce(poses[(i/1000)%len(poses)])
		zx, zy := accReading(mis, f, bx, by, 0, 0)
		zx += rng.NormFloat64() * noise
		zy += rng.NormFloat64() * noise
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Misalignment()
	gbx, gby := e.Biases()
	if math.Abs(got.Roll-mis.Roll) > geom.Deg2Rad(0.1) ||
		math.Abs(got.Pitch-mis.Pitch) > geom.Deg2Rad(0.1) ||
		math.Abs(got.Yaw-mis.Yaw) > geom.Deg2Rad(0.1) {
		r, p, y := got.Deg()
		t.Fatalf("angles (%v, %v, %v)°, want (1.2, -0.7, 0.9)°", r, p, y)
	}
	if math.Abs(gbx-bx) > 0.01 || math.Abs(gby-by) > 0.01 {
		t.Fatalf("biases (%v, %v), want (%v, %v)", gbx, gby, bx, by)
	}
}

func TestErrorsWithin3SigmaWithNoise(t *testing.T) {
	// Consistency: with correctly modelled noise, final angle errors
	// must sit inside the filter's own 3σ claim (the paper's headline
	// "99% confidence" result).
	mis := geom.EulerDeg(2.1, -1.4, 1.8)
	cfg := anglesOnlyConfig()
	cfg.MeasNoise = 0.01
	e := New(cfg)
	rng := rand.New(rand.NewSource(2))
	poses := []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 20, 0),
		geom.EulerDeg(15, -15, 0),
	}
	for i := 0; i < 30000; i++ {
		f := tiltForce(poses[(i/2000)%len(poses)])
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		zx += rng.NormFloat64() * 0.01
		zy += rng.NormFloat64() * 0.01
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Misalignment()
	s := e.AngleSigmas()
	errs := []float64{got.Roll - mis.Roll, got.Pitch - mis.Pitch, got.Yaw - mis.Yaw}
	for i, er := range errs {
		if math.Abs(er) > 3*s[i]+geom.Deg2Rad(0.001) {
			t.Errorf("axis %d: error %v° outside 3σ = %v°",
				i, geom.Rad2Deg(er), geom.Rad2Deg(3*s[i]))
		}
	}
	// And the 3σ itself should be small: well under a tenth of a degree
	// after 300 s of static data.
	for i := range s {
		if 3*s[i] > geom.Deg2Rad(0.1) {
			t.Errorf("axis %d 3σ = %v° has not converged", i, geom.Rad2Deg(3*s[i]))
		}
	}
}

func TestResidualExceedanceMatchedVsUnderstatedNoise(t *testing.T) {
	// Figure 8: with matched noise the residuals stay inside 3σ (~1%
	// exceedance); with the true disturbance 5× the modelled noise the
	// envelope is violated constantly.
	runCase := func(modelNoise, actualNoise float64) float64 {
		mis := geom.EulerDeg(1, -1, 0.5)
		cfg := anglesOnlyConfig()
		cfg.MeasNoise = modelNoise
		e := New(cfg)
		rng := rand.New(rand.NewSource(3))
		f := tiltForce(geom.EulerDeg(0, 15, 0))
		count, total := 0, 0
		for i := 0; i < 5000; i++ {
			zx, zy := accReading(mis, f, 0, 0, 0, 0)
			zx += rng.NormFloat64() * actualNoise
			zy += rng.NormFloat64() * actualNoise
			inn, err := e.Step(0.01, f, zx, zy)
			if err != nil {
				t.Fatal(err)
			}
			if i > 500 {
				total++
				if inn.Exceeds3Sigma() {
					count++
				}
			}
		}
		return float64(count) / float64(total)
	}
	matched := runCase(0.01, 0.01)
	understated := runCase(0.003, 0.015)
	if matched > 0.02 {
		t.Errorf("matched-noise exceedance rate %v too high", matched)
	}
	if understated < 0.3 {
		t.Errorf("understated-noise exceedance rate %v too low to show Figure 8 effect", understated)
	}
	if understated < 10*matched {
		t.Errorf("exceedance contrast too weak: matched %v vs understated %v", matched, understated)
	}
}

func TestScaleFactorEstimation(t *testing.T) {
	mis := geom.EulerDeg(0.8, -1.1, 0.6)
	sx, sy := 0.004, -0.003
	cfg := DefaultConfig()
	cfg.EstimateBias = false
	e := New(cfg)
	rng := rand.New(rand.NewSource(6))
	poses := []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 35, 0),
		geom.EulerDeg(0, -35, 0),
		geom.EulerDeg(35, 0, 0),
		geom.EulerDeg(-35, 0, 0),
	}
	for i := 0; i < 40000; i++ {
		f := tiltForce(poses[(i/1000)%len(poses)])
		zx, zy := accReading(mis, f, 0, 0, sx, sy)
		zx += rng.NormFloat64() * 0.003
		zy += rng.NormFloat64() * 0.003
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	gsx, gsy := e.Scales()
	if math.Abs(gsx-sx) > 0.002 || math.Abs(gsy-sy) > 0.002 {
		t.Fatalf("scales (%v, %v), want (%v, %v)", gsx, gsy, sx, sy)
	}
	got := e.Misalignment()
	if math.Abs(got.Pitch-mis.Pitch) > geom.Deg2Rad(0.1) {
		t.Fatalf("pitch = %v°, want -1.1°", geom.Rad2Deg(got.Pitch))
	}
}

func TestSetInitialBias(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	e.SetInitialBias(0.03, -0.02, 0.001)
	bx, by := e.Biases()
	if bx != 0.03 || by != -0.02 {
		t.Fatalf("biases after seed = (%v, %v)", bx, by)
	}
	sx, sy := e.BiasSigmas()
	if math.Abs(sx-0.001) > 1e-12 || math.Abs(sy-0.001) > 1e-12 {
		t.Fatalf("bias sigmas = (%v, %v)", sx, sy)
	}
	// No-op when disabled.
	e2 := New(anglesOnlyConfig())
	e2.SetInitialBias(1, 1, 1)
	if bx, by := e2.Biases(); bx != 0 || by != 0 {
		t.Fatal("SetInitialBias on disabled states changed something")
	}
}

func TestStepRejectsBadDT(t *testing.T) {
	e := New(anglesOnlyConfig())
	if _, err := e.Step(0, levelForce(), 0, 0); err == nil {
		t.Fatal("dt=0 accepted")
	}
	if _, err := e.Step(-1, levelForce(), 0, 0); err == nil {
		t.Fatal("dt<0 accepted")
	}
}

func TestNewValidatesConfig(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.MeasNoise = 0 },
		func(c *Config) { c.InitAngleSigma = 0 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config did not panic")
				}
			}()
			New(cfg)
		}()
	}
}

func TestDimCounts(t *testing.T) {
	if got := New(DefaultConfig()).Dim(); got != 7 {
		t.Fatalf("full Dim = %d, want 7", got)
	}
	if got := New(anglesOnlyConfig()).Dim(); got != 3 {
		t.Fatalf("angles Dim = %d, want 3", got)
	}
	cfg := DefaultConfig()
	cfg.EstimateScale = false
	if got := New(cfg).Dim(); got != 5 {
		t.Fatalf("bias-only Dim = %d, want 5", got)
	}
}

func TestDeterministicGivenSameInputs(t *testing.T) {
	run := func() geom.Euler {
		e := New(DefaultConfig())
		f := tiltForce(geom.EulerDeg(0, 10, 0))
		mis := geom.EulerDeg(1, 2, 3)
		for i := 0; i < 500; i++ {
			zx, zy := accReading(mis, f, 0, 0, 0, 0)
			if _, err := e.Step(0.01, f, zx, zy); err != nil {
				panic(err)
			}
		}
		return e.Misalignment()
	}
	if run() != run() {
		t.Fatal("estimator is not deterministic")
	}
}

func TestStepsCounter(t *testing.T) {
	e := New(anglesOnlyConfig())
	f := levelForce()
	for i := 0; i < 10; i++ {
		// Measurement values are irrelevant to the counter.
		if _, err := e.Step(0.01, f, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if e.Steps() != 10 {
		t.Fatalf("Steps = %d", e.Steps())
	}
}

func BenchmarkEstimatorStepFull(b *testing.B) {
	e := New(DefaultConfig())
	f := tiltForce(geom.EulerDeg(0, 10, 0))
	mis := geom.EulerDeg(1, 2, 3)
	zx, zy := accReading(mis, f, 0, 0, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatorStepAnglesOnly(b *testing.B) {
	e := New(anglesOnlyConfig())
	f := tiltForce(geom.EulerDeg(0, 10, 0))
	zx, zy := accReading(geom.EulerDeg(1, 2, 3), f, 0, 0, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveStep prices the adaptive tentpole's hot path: the
// full augmented state (lever + IMU bias + IMU scale) with the
// innovation-matched R-hat ring feeding every epoch. The allocs/op
// column is the regression gate — it must stay 0.
func BenchmarkAdaptiveStep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.EstimateLever = true
	cfg.EstimateIMUBias = true
	cfg.EstimateIMUScale = true
	cfg.AdaptiveR.Enabled = true
	e := New(cfg)
	f := tiltForce(geom.EulerDeg(0, 10, 0))
	w := geom.Vec3{0.05, -0.02, 0.3}
	zx, zy := accReading(geom.EulerDeg(1, 2, 3), f, 0, 0, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.StepFull(0.01, f, w, zx, zy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveStepAnglesOnly isolates the R-hat ring's own cost
// against BenchmarkEstimatorStepAnglesOnly (same state, fixed R).
func BenchmarkAdaptiveStepAnglesOnly(b *testing.B) {
	cfg := anglesOnlyConfig()
	cfg.AdaptiveR.Enabled = true
	e := New(cfg)
	f := tiltForce(geom.EulerDeg(0, 10, 0))
	zx, zy := accReading(geom.EulerDeg(1, 2, 3), f, 0, 0, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			b.Fatal(err)
		}
	}
}

func TestInnovationGateRejectsOutliers(t *testing.T) {
	// Occasional garbage measurements (a corrupted packet that slipped
	// through an 8-bit checksum) must not disturb a gated filter.
	mis := geom.EulerDeg(1.2, -0.8, 0.6)
	run := func(gate float64) (geom.Euler, int) {
		cfg := anglesOnlyConfig()
		cfg.GateSigma = gate
		e := New(cfg)
		rng := rand.New(rand.NewSource(11))
		poses := []geom.Euler{
			geom.EulerDeg(0, 0, 0),
			geom.EulerDeg(0, 20, 0),
			geom.EulerDeg(20, 0, 0),
		}
		for i := 0; i < 12000; i++ {
			f := tiltForce(poses[(i/2000)%len(poses)])
			zx, zy := accReading(mis, f, 0, 0, 0, 0)
			zx += rng.NormFloat64() * 0.01
			zy += rng.NormFloat64() * 0.01
			if rng.Float64() < 0.01 { // 1% garbage
				zx = (rng.Float64() - 0.5) * 60
				zy = (rng.Float64() - 0.5) * 60
			}
			if _, err := e.Step(0.01, f, zx, zy); err != nil {
				t.Fatal(err)
			}
		}
		return e.Misalignment(), e.Gated()
	}
	gated, nGated := run(6)
	ungated, _ := run(0)
	errOf := func(e geom.Euler) float64 {
		return math.Abs(e.Roll-mis.Roll) + math.Abs(e.Pitch-mis.Pitch) + math.Abs(e.Yaw-mis.Yaw)
	}
	if nGated < 50 {
		t.Fatalf("gate rejected only %d of ~120 outliers", nGated)
	}
	if errOf(gated) > geom.Deg2Rad(0.1) {
		t.Fatalf("gated filter error %.4f°", geom.Rad2Deg(errOf(gated)))
	}
	if errOf(ungated) < 2*errOf(gated) {
		t.Fatalf("gating shows no benefit: gated %.4f° vs ungated %.4f°",
			geom.Rad2Deg(errOf(gated)), geom.Rad2Deg(errOf(ungated)))
	}
}

func TestLeverArmRecovery(t *testing.T) {
	// A sensor mounted 1.2 m forward, 0.4 m right of the IMU: turning
	// manoeuvres expose the centripetal difference and the filter must
	// recover both the misalignment and the lever arm.
	mis := geom.EulerDeg(1.0, -0.8, 0.6)
	lever := geom.Vec3{1.2, 0.4, -0.3}
	cfg := DefaultConfig()
	cfg.EstimateLever = true
	cfg.MeasNoise = 0.02
	e := New(cfg)
	rng := rand.New(rand.NewSource(21))
	d := traj.CityDrive("city", 300)
	dt := 0.01
	for ti := 0.0; ti < d.Duration(); ti += dt {
		st := d.At(ti)
		f := st.SpecificForce()
		w := st.Rate
		fAcc := f.Add(w.Cross(w.Cross(lever)))
		fs := mis.DCM().T().Apply(fAcc)
		zx := fs[0] + rng.NormFloat64()*0.01
		zy := fs[1] + rng.NormFloat64()*0.01
		if _, err := e.StepFull(dt, f, w, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Misalignment()
	if math.Abs(geom.Rad2Deg(got.Roll-mis.Roll)) > 0.1 ||
		math.Abs(geom.Rad2Deg(got.Pitch-mis.Pitch)) > 0.1 ||
		math.Abs(geom.Rad2Deg(got.Yaw-mis.Yaw)) > 0.1 {
		r, p, y := got.Deg()
		t.Errorf("angles (%v, %v, %v)°, want (1, -0.8, 0.6)°", r, p, y)
	}
	lv := e.Lever()
	// Only the components the yaw-rate geometry observes converge
	// tightly (x and y; z needs roll/pitch rates the car barely has).
	if math.Abs(lv[0]-lever[0]) > 0.15 || math.Abs(lv[1]-lever[1]) > 0.15 {
		t.Errorf("lever arm (%.3f, %.3f, %.3f), want (1.2, 0.4, -0.3)", lv[0], lv[1], lv[2])
	}
	ls := e.LeverSigmas()
	if ls[0] <= 0 || ls[0] > 0.2 {
		t.Errorf("lever x sigma %v", ls[0])
	}
}

func TestLeverArmIgnoredCausesBias(t *testing.T) {
	// The same scenario WITHOUT lever states: the unmodelled
	// centripetal term must visibly degrade the estimate, proving the
	// states carry their weight.
	mis := geom.EulerDeg(1.0, -0.8, 0.6)
	lever := geom.Vec3{1.2, 0.4, -0.3}
	run := func(estimateLever bool) float64 {
		cfg := DefaultConfig()
		cfg.EstimateLever = estimateLever
		cfg.MeasNoise = 0.02
		e := New(cfg)
		rng := rand.New(rand.NewSource(22))
		d := traj.CityDrive("city", 300)
		dt := 0.01
		for ti := 0.0; ti < d.Duration(); ti += dt {
			st := d.At(ti)
			f := st.SpecificForce()
			w := st.Rate
			fAcc := f.Add(w.Cross(w.Cross(lever)))
			fs := mis.DCM().T().Apply(fAcc)
			zx := fs[0] + rng.NormFloat64()*0.01
			zy := fs[1] + rng.NormFloat64()*0.01
			if _, err := e.StepFull(dt, f, w, zx, zy); err != nil {
				panic(err)
			}
		}
		got := e.Misalignment()
		return math.Abs(got.Roll-mis.Roll) + math.Abs(got.Pitch-mis.Pitch) + math.Abs(got.Yaw-mis.Yaw)
	}
	with := run(true)
	without := run(false)
	if with > without/2 {
		t.Errorf("lever states did not help: with %.4f° vs without %.4f°",
			geom.Rad2Deg(with), geom.Rad2Deg(without))
	}
}

func TestLeverConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EstimateLever = true
	cfg.InitLeverSigma = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero lever prior accepted")
		}
	}()
	New(cfg)
}

func TestLeverAccessorsDisabled(t *testing.T) {
	e := New(anglesOnlyConfig())
	if e.Lever() != (geom.Vec3{}) || e.LeverSigmas() != (geom.Vec3{}) {
		t.Fatal("disabled lever accessors nonzero")
	}
	// Dim: full config + lever = 10.
	cfg := DefaultConfig()
	cfg.EstimateLever = true
	if got := New(cfg).Dim(); got != 10 {
		t.Fatalf("Dim = %d, want 10", got)
	}
}

func TestBumpRecoveryReconverges(t *testing.T) {
	// The sensor is knocked 2° mid-run ("car park bump"); with
	// BumpRecovery the filter reopens its covariance and re-acquires
	// within seconds, while the plain filter crawls on the tiny angle
	// random walk.
	run := func(recovery bool) (reconvergeSteps int, bumps int) {
		misBefore := geom.EulerDeg(1.0, -1.0, 0.5)
		misAfter := geom.EulerDeg(3.0, 0.5, 0.5) // the knock
		cfg := anglesOnlyConfig()
		cfg.BumpRecovery = recovery
		e := New(cfg)
		rng := rand.New(rand.NewSource(42))
		poses := []geom.Euler{
			geom.EulerDeg(0, 0, 0),
			geom.EulerDeg(0, 15, 0),
			geom.EulerDeg(15, 0, 0),
		}
		n := 30000
		bumpAt := 15000
		reconvergeSteps = -1
		for i := 0; i < n; i++ {
			mis := misBefore
			if i >= bumpAt {
				mis = misAfter
			}
			f := tiltForce(poses[(i/1000)%len(poses)])
			zx, zy := accReading(mis, f, 0, 0, 0, 0)
			zx += rng.NormFloat64() * 0.01
			zy += rng.NormFloat64() * 0.01
			if _, err := e.Step(0.01, f, zx, zy); err != nil {
				panic(err)
			}
			if i > bumpAt && reconvergeSteps < 0 {
				got := e.Misalignment()
				if math.Abs(got.Roll-misAfter.Roll) < geom.Deg2Rad(0.1) &&
					math.Abs(got.Pitch-misAfter.Pitch) < geom.Deg2Rad(0.1) {
					reconvergeSteps = i - bumpAt
				}
			}
		}
		return reconvergeSteps, e.Bumps()
	}
	withSteps, withBumps := run(true)
	withoutSteps, _ := run(false)
	if withBumps == 0 {
		t.Fatal("bump never detected")
	}
	if withSteps < 0 {
		t.Fatal("recovery-enabled filter never re-converged")
	}
	// Recovery re-acquires within a couple of seconds.
	if withSteps > 500 {
		t.Fatalf("re-convergence took %d steps (%.1f s)", withSteps, float64(withSteps)/100)
	}
	// The plain filter is at least 10x slower (or never makes it).
	if withoutSteps >= 0 && withoutSteps < 10*withSteps {
		t.Fatalf("no clear benefit: %d vs %d steps", withSteps, withoutSteps)
	}
	t.Logf("re-convergence: %d steps with recovery; %d without (-1 = never)", withSteps, withoutSteps)
}

func TestBumpRecoveryQuietWithoutDisturbance(t *testing.T) {
	// No knock: the detector must not fire on consistent noise.
	cfg := anglesOnlyConfig()
	cfg.BumpRecovery = true
	e := New(cfg)
	rng := rand.New(rand.NewSource(43))
	mis := geom.EulerDeg(1, -1, 0.5)
	poses := []geom.Euler{geom.EulerDeg(0, 0, 0), geom.EulerDeg(0, 15, 0)}
	for i := 0; i < 20000; i++ {
		f := tiltForce(poses[(i/2000)%len(poses)])
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		zx += rng.NormFloat64() * 0.01
		zy += rng.NormFloat64() * 0.01
		if _, err := e.Step(0.01, f, zx, zy); err != nil {
			t.Fatal(err)
		}
	}
	if e.Bumps() != 0 {
		t.Fatalf("%d false bump detections", e.Bumps())
	}
}
