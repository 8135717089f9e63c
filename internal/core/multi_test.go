package core

import (
	"math"
	"math/rand"
	"testing"

	"boresight/internal/geom"
)

func multiPoses() []geom.Euler {
	return []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 20, 0),
		geom.EulerDeg(0, -20, 0),
		geom.EulerDeg(20, 0, 0),
	}
}

func TestMultiRecoversTwoSensors(t *testing.T) {
	misA := geom.EulerDeg(1.5, -2.0, 1.0)  // camera
	misB := geom.EulerDeg(-0.8, 0.6, -1.2) // lidar
	cfg := anglesOnlyConfig()
	m := NewMulti(2, cfg)
	rng := rand.New(rand.NewSource(1))
	poses := multiPoses()
	for i := 0; i < 20000; i++ {
		f := tiltForce(poses[(i/2500)%len(poses)])
		ax, ay := accReading(misA, f, 0, 0, 0, 0)
		bx, by := accReading(misB, f, 0, 0, 0, 0)
		readings := []Reading{
			{FX: ax + rng.NormFloat64()*0.008, FY: ay + rng.NormFloat64()*0.008, Valid: true},
			{FX: bx + rng.NormFloat64()*0.008, FY: by + rng.NormFloat64()*0.008, Valid: true},
		}
		if err := m.Step(0.01, f, readings); err != nil {
			t.Fatal(err)
		}
	}
	for s, want := range []geom.Euler{misA, misB} {
		got := m.Misalignment(s)
		if math.Abs(geom.Rad2Deg(got.Roll-want.Roll)) > 0.05 ||
			math.Abs(geom.Rad2Deg(got.Pitch-want.Pitch)) > 0.05 ||
			math.Abs(geom.Rad2Deg(got.Yaw-want.Yaw)) > 0.05 {
			r, p, y := got.Deg()
			wr, wp, wy := want.Deg()
			t.Errorf("sensor %d: (%v, %v, %v)°, want (%v, %v, %v)°", s, r, p, y, wr, wp, wy)
		}
	}
}

func TestMultiRelativeAlignment(t *testing.T) {
	misA := geom.EulerDeg(2, 0, 0)
	misB := geom.EulerDeg(0, 0, 2)
	m := NewMulti(2, anglesOnlyConfig())
	poses := multiPoses()
	for i := 0; i < 12000; i++ {
		f := tiltForce(poses[(i/1500)%len(poses)])
		ax, ay := accReading(misA, f, 0, 0, 0, 0)
		bx, by := accReading(misB, f, 0, 0, 0, 0)
		if err := m.Step(0.01, f, []Reading{
			{FX: ax, FY: ay, Valid: true},
			{FX: bx, FY: by, Valid: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rel, sig := m.Relative(0, 1)
	// Truth: C_a2b... the relative rotation from sensor B frame to
	// sensor A frame is C(misA)ᵀ·C(misB).
	want := misA.DCM().T().Mul(misB.DCM()).Euler()
	if math.Abs(geom.Rad2Deg(rel.Roll-want.Roll)) > 0.05 ||
		math.Abs(geom.Rad2Deg(rel.Pitch-want.Pitch)) > 0.05 ||
		math.Abs(geom.Rad2Deg(rel.Yaw-want.Yaw)) > 0.05 {
		t.Fatalf("relative = %v, want %v", rel, want)
	}
	for k, s := range sig {
		if s <= 0 || s > geom.Deg2Rad(1) {
			t.Fatalf("relative sigma[%d] = %v implausible", k, s)
		}
	}
}

func TestMultiToleratesDropouts(t *testing.T) {
	// Sensor B drops out half the time; both must still converge.
	misA := geom.EulerDeg(1, -1, 0.5)
	misB := geom.EulerDeg(-1, 1, -0.5)
	m := NewMulti(2, anglesOnlyConfig())
	rng := rand.New(rand.NewSource(3))
	poses := multiPoses()
	for i := 0; i < 20000; i++ {
		f := tiltForce(poses[(i/2500)%len(poses)])
		ax, ay := accReading(misA, f, 0, 0, 0, 0)
		bx, by := accReading(misB, f, 0, 0, 0, 0)
		readings := []Reading{
			{FX: ax + rng.NormFloat64()*0.01, FY: ay + rng.NormFloat64()*0.01, Valid: true},
			{FX: bx + rng.NormFloat64()*0.01, FY: by + rng.NormFloat64()*0.01, Valid: i%2 == 0},
		}
		if err := m.Step(0.01, f, readings); err != nil {
			t.Fatal(err)
		}
	}
	gb := m.Misalignment(1)
	if math.Abs(geom.Rad2Deg(gb.Roll-misB.Roll)) > 0.1 {
		t.Fatalf("dropout sensor roll = %v°", geom.Rad2Deg(gb.Roll))
	}
	// The dropout sensor is less certain than the continuous one.
	sa, sb := m.AngleSigmas(0), m.AngleSigmas(1)
	if sb[0] <= sa[0] {
		t.Fatalf("dropout sensor sigma %v not larger than continuous %v", sb[0], sa[0])
	}
}

func TestMultiAllInvalidEpoch(t *testing.T) {
	m := NewMulti(2, anglesOnlyConfig())
	f := tiltForce(geom.Euler{})
	if err := m.Step(0.01, f, []Reading{{}, {}}); err != nil {
		t.Fatal(err)
	}
	if m.Steps() != 1 {
		t.Fatalf("steps = %d", m.Steps())
	}
}

func TestMultiWithBiasStates(t *testing.T) {
	misA := geom.EulerDeg(1, -1, 0.8)
	cfg := DefaultConfig()
	cfg.EstimateScale = false
	m := NewMulti(1, cfg)
	rng := rand.New(rand.NewSource(4))
	poses := []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 30, 0),
		geom.EulerDeg(0, -30, 0),
		geom.EulerDeg(30, 0, 0),
		geom.EulerDeg(-30, 0, 0),
	}
	bx, by := 0.04, -0.03
	for i := 0; i < 30000; i++ {
		f := tiltForce(poses[(i/1000)%len(poses)])
		ax, ay := accReading(misA, f, bx, by, 0, 0)
		if err := m.Step(0.01, f, []Reading{
			{FX: ax + rng.NormFloat64()*0.005, FY: ay + rng.NormFloat64()*0.005, Valid: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Misalignment(0)
	if math.Abs(geom.Rad2Deg(got.Yaw-misA.Yaw)) > 0.1 {
		t.Fatalf("yaw = %v°, want 0.8°", geom.Rad2Deg(got.Yaw))
	}
}

// TestMultiMatchesSingleSensorFilter holds each sensor of a two-sensor
// MultiEstimator to a plain Estimator fed the same readings through
// StepDegraded, bit for bit, through fresh and held epochs, epochs where
// one sensor drops out and epochs where both do.
func TestMultiMatchesSingleSensorFilter(t *testing.T) {
	mis := []geom.Euler{geom.EulerDeg(1.2, -0.7, 0.9), geom.EulerDeg(-0.8, 1.1, -1.4)}
	cfg := DefaultConfig()
	cfg.AdaptiveR.Enabled = true
	cfg.AdaptiveR.Window = 50
	multi := NewMulti(2, cfg)
	single := []*Estimator{New(cfg), New(cfg)}
	rng := rand.New(rand.NewSource(5))
	poses := multiPoses()
	readings := make([]Reading, 2)
	allDropped := 0
	for i := 0; i < 6000; i++ {
		f := tiltForce(poses[(i/1000)%len(poses)])
		// Each cycle of eight epochs: four fresh, sensor 0 held, both
		// held, sensor 1 dropped, both dropped. A held reading replays
		// the sensor's last one.
		kind := i % 8
		for s := range readings {
			r := &readings[s]
			held := kind == 5 || (kind == 4 && s == 0)
			if !held {
				zx, zy := accReading(mis[s], f, 0, 0, 0, 0)
				r.FX, r.FY = zx+rng.NormFloat64()*0.01, zy+rng.NormFloat64()*0.01
			}
			r.Held = held
			r.Valid = kind != 7 && !(kind == 6 && s == 1)
		}
		if kind == 7 {
			allDropped++
		}
		if err := multi.Step(0.01, f, readings); err != nil {
			t.Fatal(err)
		}
		for s, r := range readings {
			q := QualityFresh
			switch {
			case !r.Valid:
				q = QualityDropout
			case r.Held:
				q = QualityHeld
			}
			if _, err := single[s].StepDegraded(0.01, f, geom.Vec3{}, r.FX, r.FY, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(what string, s int, got, want []float64) {
		t.Helper()
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("sensor %d %s[%d]: multi %v, single %v", s, what, k, got[k], want[k])
			}
		}
	}
	held := 0
	for s, e := range single {
		a, b := multi.Misalignment(s), e.Misalignment()
		same("angles", s, []float64{a.Roll, a.Pitch, a.Yaw}, []float64{b.Roll, b.Pitch, b.Yaw})
		ms, es := multi.AngleSigmas(s), e.AngleSigmas()
		same("sigmas", s, ms[:], es[:])
		mx, my := multi.RHat(s)
		ex, ey := e.RHat()
		same("RHat", s, []float64{mx, my}, []float64{ex, ey})
		m := multi.sensors[s]
		if m.Steps() != e.Steps() || m.Dropouts() != e.Dropouts() || m.HeldUpdates() != e.HeldUpdates() ||
			m.HeldRun() != e.HeldRun() || m.Gated() != e.Gated() {
			t.Errorf("sensor %d counters: steps %d/%d, dropouts %d/%d, held %d/%d, held run %d/%d, gated %d/%d (multi/single)",
				s, m.Steps(), e.Steps(), m.Dropouts(), e.Dropouts(), m.HeldUpdates(), e.HeldUpdates(),
				m.HeldRun(), e.HeldRun(), m.Gated(), e.Gated())
		}
		held += e.HeldUpdates()
	}
	if multi.Steps() != 6000 || multi.DropoutEpochs() != allDropped || multi.HeldUpdates() != held {
		t.Errorf("multi counters: steps %d, dropout epochs %d, held updates %d; want 6000, %d, %d",
			multi.Steps(), multi.DropoutEpochs(), multi.HeldUpdates(), allDropped, held)
	}
}

// TestMultiGatesOneSensorsOutlier gives one sensor of a converged
// two-sensor MultiEstimator a 1 m/s² outlier: that sensor's innovation
// gate rejects it, so its misalignment does not move at all, while the
// other sensor updates as usual.
func TestMultiGatesOneSensorsOutlier(t *testing.T) {
	mis := []geom.Euler{geom.EulerDeg(1.5, -1, 0.5), geom.EulerDeg(-1, 2, -0.5)}
	m := NewMulti(2, DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	poses := multiPoses()
	readings := make([]Reading, 2)
	step := func(i int, outlier float64) {
		t.Helper()
		f := tiltForce(poses[(i/1000)%len(poses)])
		for s := range readings {
			zx, zy := accReading(mis[s], f, 0, 0, 0, 0)
			readings[s] = Reading{FX: zx + rng.NormFloat64()*0.01, FY: zy + rng.NormFloat64()*0.01, Valid: true}
		}
		readings[1].FX += outlier
		if err := m.Step(0.01, f, readings); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8000; i++ {
		step(i, 0)
	}
	before := []geom.Euler{m.Misalignment(0), m.Misalignment(1)}
	gated := m.sensors[1].Gated()
	step(8000, 1)
	if got := m.Misalignment(1); got != before[1] {
		t.Fatalf("sensor 1 misalignment moved on its outlier: %v → %v", before[1], got)
	}
	if got := m.sensors[1].Gated(); got != gated+1 {
		t.Fatalf("sensor 1 gated %d measurements on the outlier epoch, want 1", got-gated)
	}
	if got := m.Misalignment(0); got == before[0] {
		t.Fatal("sensor 0 did not update on the outlier epoch")
	}
}

func TestMultiValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewMulti(0) accepted")
			}
		}()
		NewMulti(0, anglesOnlyConfig())
	}()
	m := NewMulti(2, anglesOnlyConfig())
	if err := m.Step(0.01, geom.Vec3{}, []Reading{{}}); err == nil {
		t.Error("wrong reading count accepted")
	}
	if err := m.Step(0, geom.Vec3{}, []Reading{{}, {}}); err == nil {
		t.Error("dt=0 accepted")
	}
	if m.Sensors() != 2 {
		t.Errorf("Sensors = %d", m.Sensors())
	}
}

func BenchmarkMultiStepThreeSensors(b *testing.B) {
	m := NewMulti(3, anglesOnlyConfig())
	f := tiltForce(geom.EulerDeg(0, 10, 0))
	readings := make([]Reading, 3)
	for s := range readings {
		mis := geom.EulerDeg(float64(s), -float64(s), 0.5)
		zx, zy := accReading(mis, f, 0, 0, 0, 0)
		readings[s] = Reading{FX: zx, FY: zy, Valid: true}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(0.01, f, readings); err != nil {
			b.Fatal(err)
		}
	}
}
