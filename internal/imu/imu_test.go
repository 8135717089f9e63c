package imu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boresight/internal/geom"
	"boresight/internal/traj"
)

func TestAxisErrorBiasScale(t *testing.T) {
	e := AxisError{Bias: 0.1, Scale: 0.01}
	rng := rand.New(rand.NewSource(1))
	if got := e.Apply(10, rng); math.Abs(got-(10*1.01+0.1)) > 1e-12 {
		t.Fatalf("Apply = %v", got)
	}
}

func TestAxisErrorNoiseStatistics(t *testing.T) {
	e := AxisError{NoiseStd: 0.5}
	rng := rand.New(rand.NewSource(2))
	n := 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := e.Apply(0, rng)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("noise mean = %v", mean)
	}
	if math.Abs(std-0.5) > 0.01 {
		t.Fatalf("noise std = %v, want 0.5", std)
	}
}

func TestAxisErrorQuantisation(t *testing.T) {
	e := AxisError{Quant: 0.25}
	rng := rand.New(rand.NewSource(3))
	for _, in := range []float64{0.1, 0.13, 0.37, -0.12, 5.55} {
		got := e.Apply(in, rng)
		if r := math.Mod(math.Abs(got)+1e-12, 0.25); r > 1e-9 && r < 0.25-1e-9 {
			t.Fatalf("Apply(%v) = %v not on 0.25 grid", in, got)
		}
		if math.Abs(got-in) > 0.125+1e-12 {
			t.Fatalf("quantisation moved %v to %v (more than half a step)", in, got)
		}
	}
}

func TestDutyCycleCodecRoundTrip(t *testing.T) {
	c := DutyCycleCodec{T2Counts: 4096}
	for _, a := range []float64{0, 1, -1, 9.81, -9.81, 19.6, -19.6, 0.05} {
		back := c.Decode(c.Encode(a))
		if math.Abs(back-a) > c.Resolution()/2+1e-12 {
			t.Fatalf("codec round trip %v -> %v (res %v)", a, back, c.Resolution())
		}
	}
}

func TestDutyCycleCodecSaturates(t *testing.T) {
	c := DutyCycleCodec{T2Counts: 1000}
	// ±4 g saturates the duty cycle at 0/100%.
	hi := c.Encode(100 * GravityPerG)
	if hi != 1000 {
		t.Fatalf("positive saturation count = %d", hi)
	}
	lo := c.Encode(-100 * GravityPerG)
	if lo != 0 {
		t.Fatalf("negative saturation count = %d", lo)
	}
}

func TestDutyCycleCodecZeroG(t *testing.T) {
	c := DutyCycleCodec{T2Counts: 1000}
	if got := c.Encode(0); got != 500 {
		t.Fatalf("0 g count = %d, want 500 (50%% duty)", got)
	}
	if got := c.Decode(500); got != 0 {
		t.Fatalf("Decode(500) = %v", got)
	}
	// 1 g shifts duty by 12.5%.
	if got := c.Encode(GravityPerG); got != 625 {
		t.Fatalf("1 g count = %d, want 625", got)
	}
}

// Property via testing/quick: codec error is bounded by half a count.
func TestDutyCycleCodecQuick(t *testing.T) {
	c := DutyCycleCodec{T2Counts: 4096}
	f := func(raw int16) bool {
		a := float64(raw) / float64(math.MaxInt16) * 2 * GravityPerG // ±2 g
		return math.Abs(c.Decode(c.Encode(a))-a) <= c.Resolution()/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDMUStaticLevelOutput(t *testing.T) {
	cfg := DefaultDMUConfig()
	d := NewDMU(cfg, 42)
	st := traj.StaticPose{Dur: 1}.At(0)
	s := d.Sample(st, [3]float64{})
	// z accel ≈ -g plus small bias/noise.
	if math.Abs(s.Accel[2]+traj.Gravity) > 0.1 {
		t.Fatalf("z accel = %v", s.Accel[2])
	}
	// x/y accel small.
	if math.Abs(s.Accel[0]) > 0.1 || math.Abs(s.Accel[1]) > 0.1 {
		t.Fatalf("level accel = %v", s.Accel)
	}
	// Gyros near zero.
	if s.Rate.Norm() > geom.Deg2Rad(0.5) {
		t.Fatalf("static gyro = %v", s.Rate)
	}
	if s.T != 0 {
		t.Fatalf("T = %v", s.T)
	}
}

func TestDMUDeterministicWithSeed(t *testing.T) {
	st := traj.StaticPose{Dur: 1}.At(0)
	a := NewDMU(DefaultDMUConfig(), 7).Sample(st, [3]float64{})
	b := NewDMU(DefaultDMUConfig(), 7).Sample(st, [3]float64{})
	if a != b {
		t.Fatal("same seed produced different samples")
	}
	c := NewDMU(DefaultDMUConfig(), 8).Sample(st, [3]float64{})
	if a == c {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestDMUBiasObservable(t *testing.T) {
	// With noise disabled, the residual against truth is exactly
	// bias + scale error.
	cfg := DMUConfig{SampleRate: 100}
	cfg.Accel[0] = AxisError{Bias: 0.05}
	d := NewDMU(cfg, 1)
	st := traj.StaticPose{Dur: 1}.At(0)
	s := d.Sample(st, [3]float64{})
	truth := st.SpecificForce()
	if math.Abs(s.Accel[0]-truth[0]-0.05) > 1e-12 {
		t.Fatalf("x residual = %v, want bias 0.05", s.Accel[0]-truth[0])
	}
}

func TestDMUVibrationEntersMeasurement(t *testing.T) {
	cfg := DMUConfig{SampleRate: 100} // no errors
	d := NewDMU(cfg, 1)
	st := traj.StaticPose{Dur: 1}.At(0)
	clean := d.Sample(st, [3]float64{})
	vib := d.Sample(st, [3]float64{0.5, 0, 0})
	if math.Abs(vib.Accel[0]-clean.Accel[0]-0.5) > 1e-12 {
		t.Fatalf("vibration delta = %v", vib.Accel[0]-clean.Accel[0])
	}
}

func TestDMUMountMisalignmentRotates(t *testing.T) {
	cfg := DMUConfig{SampleRate: 100, Mount: geom.EulerDeg(0, 0, 90)}
	d := NewDMU(cfg, 1)
	// Pitch 30° pose puts gravity on body x; a 90°-yawed IMU sees it on
	// its own -y axis.
	st := traj.StaticPose{Attitude: geom.EulerDeg(0, 30, 0), Dur: 1}.At(0)
	s := d.Sample(st, [3]float64{})
	truthBody := st.SpecificForce()
	if math.Abs(s.Accel[1]+truthBody[0]) > 1e-9 {
		t.Fatalf("mounted y = %v, want %v", s.Accel[1], -truthBody[0])
	}
}

func TestDMUSampleRateDefault(t *testing.T) {
	d := NewDMU(DMUConfig{}, 1)
	if d.SampleRate() != 100 {
		t.Fatalf("default sample rate = %v", d.SampleRate())
	}
}

func TestACCMeasuresMisalignedGravity(t *testing.T) {
	// True misalignment: pitch 2°. On a level static vehicle the sensor
	// x' axis picks up g·sin(2°) that the body x does not have.
	mis := geom.EulerDeg(0, 2, 0)
	cfg := ACCConfig{Misalignment: mis, SampleRate: 100} // ideal instrument
	a := NewACC(cfg, 1)
	st := traj.StaticPose{Dur: 1}.At(0)
	s := a.Sample(st, [3]float64{})
	want := traj.Gravity * math.Sin(geom.Deg2Rad(2))
	if math.Abs(s.FX-want) > 1e-9 {
		t.Fatalf("FX = %v, want %v", s.FX, want)
	}
	if math.Abs(s.FY) > 1e-9 {
		t.Fatalf("FY = %v, want 0", s.FY)
	}
}

func TestACCRollMisalignmentOnY(t *testing.T) {
	mis := geom.EulerDeg(3, 0, 0)
	cfg := ACCConfig{Misalignment: mis, SampleRate: 100}
	a := NewACC(cfg, 1)
	st := traj.StaticPose{Dur: 1}.At(0)
	s := a.Sample(st, [3]float64{})
	// Roll couples gravity onto y' with sign -g·sin(roll)... the body z
	// (down) gravity component rotated by roll φ about x gives
	// f_y' = -(-g)·sin(φ) = ... verify numerically instead.
	fSens := mis.DCM().T().Apply(st.SpecificForce())
	if math.Abs(s.FY-fSens[1]) > 1e-12 || math.Abs(s.FX-fSens[0]) > 1e-12 {
		t.Fatalf("sample (%v, %v) != direct rotation (%v, %v)", s.FX, s.FY, fSens[0], fSens[1])
	}
	if math.Abs(s.FY) < 0.1 {
		t.Fatalf("roll misalignment produced no y' signal: %v", s.FY)
	}
}

func TestACCYawMisalignmentNeedsHorizontalAccel(t *testing.T) {
	mis := geom.EulerDeg(0, 0, 2)
	cfg := ACCConfig{Misalignment: mis, SampleRate: 100}
	a := NewACC(cfg, 1)
	// Static level: yaw misalignment is invisible (gravity is along z).
	st := traj.StaticPose{Dur: 1}.At(0)
	s := a.Sample(st, [3]float64{})
	if math.Abs(s.FX) > 1e-9 || math.Abs(s.FY) > 1e-9 {
		t.Fatalf("yaw visible on static level platform: %v %v", s.FX, s.FY)
	}
	// Accelerating: yaw shows up on y'.
	d := traj.NewDrive("a", []traj.Segment{{Dur: 10, LongAccel: 2}})
	s = a.Sample(d.At(5), [3]float64{})
	if math.Abs(s.FY) < 0.05 {
		t.Fatalf("yaw misalignment invisible under acceleration: FY = %v", s.FY)
	}
}

func TestACCCodecQuantisesOutput(t *testing.T) {
	mis := geom.EulerDeg(0, 1, 0)
	cfg := ACCConfig{
		Misalignment: mis,
		Codec:        DutyCycleCodec{T2Counts: 256}, // coarse
		SampleRate:   100,
	}
	a := NewACC(cfg, 1)
	st := traj.StaticPose{Dur: 1}.At(0)
	s := a.Sample(st, [3]float64{})
	res := cfg.Codec.Resolution()
	// Output must sit on the codec grid.
	if r := math.Mod(math.Abs(s.FX)/res, 1); r > 1e-6 && r < 1-1e-6 {
		t.Fatalf("FX %v not on codec grid %v", s.FX, res)
	}
}

func TestACCDefaultConfigSane(t *testing.T) {
	cfg := DefaultACCConfig(geom.EulerDeg(1, 2, 3))
	if cfg.Codec.T2Counts == 0 || cfg.SampleRate != 100 {
		t.Fatal("default config incomplete")
	}
	a := NewACC(cfg, 5)
	if a.TrueMisalignment() != geom.EulerDeg(1, 2, 3) {
		t.Fatal("TrueMisalignment accessor broken")
	}
	if a.SampleRate() != 100 {
		t.Fatal("SampleRate accessor broken")
	}
}

func TestACCDeterministicWithSeed(t *testing.T) {
	st := traj.StaticPose{Dur: 1}.At(0)
	cfg := DefaultACCConfig(geom.EulerDeg(1, 0, 0))
	a := NewACC(cfg, 7).Sample(st, [3]float64{})
	b := NewACC(cfg, 7).Sample(st, [3]float64{})
	if a != b {
		t.Fatal("same seed produced different ACC samples")
	}
}

// TestSampleBodyMatchesSample pins the wrappers: Sample on a truth
// state equals SampleBody on the force and rate it implies, bit for
// bit, for both instruments and with and without an ACC lever arm.
func TestSampleBodyMatchesSample(t *testing.T) {
	d := traj.CityDrive("city", 57)
	vib := traj.DefaultVibration()
	for _, lever := range []geom.Vec3{{}, {0.4, -0.3, 0.2}} {
		acfg := DefaultACCConfig(geom.EulerDeg(1, -2, 0.5))
		acfg.LeverArm = lever
		dmuA, dmuB := NewDMU(DefaultDMUConfig(), 3), NewDMU(DefaultDMUConfig(), 3)
		accA, accB := NewACC(acfg, 4), NewACC(acfg, 4)
		for ti := 0.0; ti < d.Duration(); ti += 0.37 {
			st := d.At(ti)
			v := vib.At(ti, st.Vel.Norm())
			f := st.SpecificForce().Add(geom.Vec3(v))
			if a, b := dmuA.Sample(st, v), dmuB.SampleBody(st.T, f, st.Rate); a != b {
				t.Fatalf("lever %v, t=%v: DMU Sample %+v, SampleBody %+v", lever, ti, a, b)
			}
			if a, b := accA.Sample(st, v), accB.SampleBody(st.T, f, st.Rate); a != b {
				t.Fatalf("lever %v, t=%v: ACC Sample %+v, SampleBody %+v", lever, ti, a, b)
			}
		}
	}
}

// TestResetMatchesNew resets one DMU through a run of mounts: a new
// one, the same one again, and ones that differ only in the sign of a
// zero angle. After every Reset the installed rotation must have the
// bits of Mount.DCM().T(), and the DMU must sample exactly as a fresh
// one from NewDMU does.
func TestResetMatchesNew(t *testing.T) {
	negZero := math.Copysign(0, -1)
	mounts := []geom.Euler{
		{},
		geom.EulerDeg(2, -1, 3),
		geom.EulerDeg(2, -1, 3),
		{Roll: negZero, Yaw: math.Pi},
		{Yaw: math.Pi},
		{Roll: negZero, Pitch: negZero, Yaw: negZero},
		{},
		{},
	}
	d := NewDMU(DefaultDMUConfig(), 1)
	f, w := geom.Vec3{0.3, -0.2, -9.8}, geom.Vec3{0.01, -0.02, 0.05}
	for k, mount := range mounts {
		cfg := DefaultDMUConfig()
		cfg.Mount = mount
		seed := int64(10 + k)
		d.Reset(cfg, seed)
		want := mount.DCM().T()
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(d.mount[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("step %d: mount rotation %v, want %v (angles %v)", k, d.mount, want, mount.Bits())
				}
			}
		}
		fresh := NewDMU(cfg, seed)
		for i := 0; i < 4; i++ {
			tm := float64(i) * 0.01
			if got, want := d.SampleBody(tm, f, w), fresh.SampleBody(tm, f, w); got != want {
				t.Fatalf("step %d: reset DMU sampled %+v, NewDMU %+v", k, got, want)
			}
		}
	}
}

func BenchmarkDMUSample(b *testing.B) {
	d := NewDMU(DefaultDMUConfig(), 1)
	st := traj.StaticPose{Dur: 1}.At(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(st, [3]float64{})
	}
}

func BenchmarkACCSample(b *testing.B) {
	a := NewACC(DefaultACCConfig(geom.EulerDeg(1, 2, 3)), 1)
	st := traj.StaticPose{Dur: 1}.At(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Sample(st, [3]float64{})
	}
}
