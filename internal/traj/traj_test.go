package traj

import (
	"math"
	"runtime"
	"testing"

	"boresight/internal/geom"
)

func TestStaticPoseLevelSpecificForce(t *testing.T) {
	p := StaticPose{Dur: 10}
	s := p.At(3)
	f := s.SpecificForce()
	// A level stationary platform senses -g on the z (down) axis.
	if math.Abs(f[0]) > 1e-12 || math.Abs(f[1]) > 1e-12 || math.Abs(f[2]+Gravity) > 1e-12 {
		t.Fatalf("level specific force = %v", f)
	}
	if p.Duration() != 10 || p.Name() != "static" {
		t.Fatal("accessors broken")
	}
	if (StaticPose{Label: "tilt"}).Name() != "tilt" {
		t.Fatal("label ignored")
	}
}

func TestStaticPoseTiltedSpecificForce(t *testing.T) {
	// Pitch the platform up 30°: gravity appears on the body x axis.
	p := StaticPose{Attitude: geom.EulerDeg(0, 30, 0), Dur: 1}
	f := p.At(0).SpecificForce()
	// f_b = C_n2b (−g_n): for pitch θ, x-body sees +g·sinθ, z sees −g·cosθ.
	wantX := Gravity * math.Sin(geom.Deg2Rad(30))
	wantZ := -Gravity * math.Cos(geom.Deg2Rad(30))
	if math.Abs(f[0]-wantX) > 1e-9 || math.Abs(f[1]) > 1e-9 || math.Abs(f[2]-wantZ) > 1e-9 {
		t.Fatalf("tilted specific force = %v, want x=%v z=%v", f, wantX, wantZ)
	}
}

func TestStaticPoseRolledSpecificForce(t *testing.T) {
	p := StaticPose{Attitude: geom.EulerDeg(20, 0, 0), Dur: 1}
	f := p.At(0).SpecificForce()
	wantY := -Gravity * math.Sin(geom.Deg2Rad(20))
	wantZ := -Gravity * math.Cos(geom.Deg2Rad(20))
	if math.Abs(f[0]) > 1e-9 || math.Abs(f[1]-wantY) > 1e-9 || math.Abs(f[2]-wantZ) > 1e-9 {
		t.Fatalf("rolled specific force = %v", f)
	}
}

func TestDriveAccelerationSegment(t *testing.T) {
	d := NewDrive("accel", []Segment{{Dur: 10, LongAccel: 2}})
	s := d.At(5)
	if math.Abs(s.Vel.Norm()-10) > 1e-9 {
		t.Fatalf("speed at t=5 = %v, want 10", s.Vel.Norm())
	}
	// Specific force along body x should be ~longitudinal accel
	// (slightly redistributed by the small dive pitch).
	f := s.SpecificForce()
	if math.Abs(f[0]-2) > 0.2 {
		t.Fatalf("body x specific force = %v, want ~2", f[0])
	}
	// z still carries roughly -g.
	if math.Abs(f[2]+Gravity) > 0.2 {
		t.Fatalf("body z specific force = %v", f[2])
	}
}

func TestDriveBrakingClampsAtZeroSpeed(t *testing.T) {
	d := NewDrive("brake", []Segment{
		{Dur: 5, LongAccel: 2},   // reach 10 m/s
		{Dur: 10, LongAccel: -2}, // would reach -10; must clamp at 0
	})
	s := d.At(14.9)
	if s.Vel.Norm() > 1e-9 {
		t.Fatalf("speed after over-braking = %v, want 0", s.Vel.Norm())
	}
	// Acceleration must also clamp once stopped.
	if s.AccelN.Norm() > 1e-9 {
		t.Fatalf("accel after stop = %v", s.AccelN.Norm())
	}
}

func TestDriveTurnCentripetal(t *testing.T) {
	// Constant speed turn: centripetal acceleration = v*omega.
	d := NewDrive("turn", []Segment{
		{Dur: 5, LongAccel: 2},                 // v=10
		{Dur: 10, LongAccel: 0, TurnRate: 0.2}, // turn at 0.2 rad/s
	})
	s := d.At(10)
	wantLat := 10 * 0.2
	// Lateral acceleration magnitude in NED.
	if math.Abs(s.AccelN.Norm()-wantLat) > 1e-6 {
		t.Fatalf("centripetal = %v, want %v", s.AccelN.Norm(), wantLat)
	}
	// In body axes the lateral specific force appears on y.
	f := s.SpecificForce()
	if math.Abs(f[1]-wantLat) > 0.25 {
		t.Fatalf("body y specific force = %v, want ~%v", f[1], wantLat)
	}
}

func TestDriveHeadingIntegration(t *testing.T) {
	d := NewDrive("turn", []Segment{{Dur: 10, LongAccel: 0, TurnRate: 0.1}})
	s := d.At(10)
	yaw := s.Att.Euler().Yaw
	if math.Abs(yaw-1.0) > 1e-9 {
		t.Fatalf("yaw after 10s at 0.1 rad/s = %v", yaw)
	}
	if math.Abs(s.Rate[2]-0.1) > 1e-12 {
		t.Fatalf("yaw rate = %v", s.Rate[2])
	}
}

func TestDrivePositionConsistentWithVelocity(t *testing.T) {
	d := NewDrive("accel", []Segment{{Dur: 10, LongAccel: 1}})
	// After 10 s at 1 m/s²: x = 50 m north.
	s := d.At(10)
	if math.Abs(s.Pos[0]-50) > 0.1 || math.Abs(s.Pos[1]) > 0.01 {
		t.Fatalf("pos = %v, want (50, 0, 0)", s.Pos)
	}
	// Midpoint check: x(5) = 12.5.
	if p := d.At(5).Pos; math.Abs(p[0]-12.5) > 0.05 {
		t.Fatalf("pos(5) = %v, want 12.5", p[0])
	}
}

func TestDriveTimeClamping(t *testing.T) {
	d := NewDrive("x", []Segment{{Dur: 2, LongAccel: 1}})
	if got := d.At(-5).T; got != 0 {
		t.Fatalf("At(-5).T = %v", got)
	}
	if got := d.At(99).T; got != 2 {
		t.Fatalf("At(99).T = %v", got)
	}
}

// TestDriveOwnsSegments pins the immutability a *Drive promises its
// callers (system caches truth by the pointer): rewriting the slice
// handed to NewDrive leaves At unchanged.
func TestDriveOwnsSegments(t *testing.T) {
	segs := []Segment{{Dur: 4, LongAccel: 1.5}, {Dur: 5, TurnRate: 0.2}}
	d := NewDrive("x", segs)
	want := d.At(7)
	segs[0] = Segment{Dur: 4, LongAccel: -3}
	segs[1].TurnRate = -0.4
	if got := d.At(7); got != want {
		t.Fatalf("At(7) changed with the caller's slice:\n got %+v\nwant %+v", got, want)
	}
}

// TestCityDriveDuration pins the helper to the drives CityDrive builds:
// durations that round up to the same whole passes build equal drives.
func TestCityDriveDuration(t *testing.T) {
	for _, dur := range []float64{0.5, 5, 45, 57, 57.01, 120} {
		if got, want := CityDriveDuration(dur), CityDrive("c", dur).Duration(); got != want {
			t.Errorf("CityDriveDuration(%v) = %v, CityDrive lasts %v", dur, got, want)
		}
	}
}

// TestDriveHeapBytes holds HeapBytes to the heap NewDrive allocates:
// it counts every allocation, and falls short of the total only by the
// allocator's rounding. Of three builds, the least allocation is taken,
// so an allocation on another goroutine cannot fail the test.
func TestDriveHeapBytes(t *testing.T) {
	for _, reps := range []int{1, 6} {
		var segs []Segment
		for r := 0; r < reps; r++ {
			segs = append(segs, cityPattern...)
		}
		var before, after runtime.MemStats
		alloc := math.MaxInt
		var d *Drive
		for try := 0; try < 3; try++ {
			runtime.ReadMemStats(&before)
			d = NewDrive("x", segs)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, int(after.TotalAlloc-before.TotalAlloc))
		}
		if hb := d.HeapBytes(); hb > alloc || alloc > hb+hb/8+8192 {
			t.Errorf("%d passes: HeapBytes %d B, NewDrive allocated %d B", reps, hb, alloc)
		}
	}
}

func TestDriveValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty drive did not panic")
		}
	}()
	NewDrive("bad", nil)
}

func TestDriveBadSegmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-duration segment did not panic")
		}
	}()
	NewDrive("bad", []Segment{{Dur: 0}})
}

func TestCityDriveCoverage(t *testing.T) {
	d := CityDrive("city", 300)
	if d.Duration() < 300 {
		t.Fatalf("duration %v < requested 300", d.Duration())
	}
	// The profile must include meaningful horizontal acceleration for
	// yaw observability: check peak magnitudes.
	var peakAccel, peakSpeed float64
	for ti := 0.0; ti < d.Duration(); ti += 0.5 {
		s := d.At(ti)
		if a := s.AccelN.Norm(); a > peakAccel {
			peakAccel = a
		}
		if v := s.Vel.Norm(); v > peakSpeed {
			peakSpeed = v
		}
	}
	if peakAccel < 1.5 {
		t.Fatalf("peak acceleration %v too small for observability", peakAccel)
	}
	if peakSpeed < 8 {
		t.Fatalf("peak speed %v unrealistically small", peakSpeed)
	}
}

func TestSpecificForceMagnitudeStatic(t *testing.T) {
	// Any static pose: |f| == g exactly.
	for _, e := range []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(10, 20, 30),
		geom.EulerDeg(-45, 15, 120),
	} {
		f := (StaticPose{Attitude: e, Dur: 1}).At(0).SpecificForce()
		if math.Abs(f.Norm()-Gravity) > 1e-9 {
			t.Fatalf("|f| = %v at %v", f.Norm(), e)
		}
	}
}

func TestVibrationIdleVsMoving(t *testing.T) {
	v := DefaultVibration()
	rmsIdle := v.RMS(0, 2)
	rmsMove := v.RMS(15, 2)
	for i := 0; i < 3; i++ {
		if rmsMove[i] < rmsIdle[i] {
			t.Fatalf("axis %d: moving RMS %v < idle RMS %v", i, rmsMove[i], rmsIdle[i])
		}
	}
	// Moving vibration must be large enough to matter vs the paper's
	// static noise floor (0.003–0.01 m/s²).
	if rmsMove[2] < 0.01 {
		t.Fatalf("moving z RMS %v too small to motivate noise retuning", rmsMove[2])
	}
}

func TestVibrationDeterministic(t *testing.T) {
	v := DefaultVibration()
	a := v.At(1.234, 10)
	b := v.At(1.234, 10)
	if a != b {
		t.Fatal("vibration is not deterministic")
	}
}

func TestVibrationZeroMean(t *testing.T) {
	v := DefaultVibration()
	const dt = 1e-3
	var sum [3]float64
	n := 20000
	for k := 0; k < n; k++ {
		a := v.At(float64(k)*dt, 10)
		for i := 0; i < 3; i++ {
			sum[i] += a[i]
		}
	}
	for i := 0; i < 3; i++ {
		if m := math.Abs(sum[i] / float64(n)); m > 0.01 {
			t.Fatalf("axis %d vibration mean %v not ~0", i, m)
		}
	}
}

func BenchmarkDriveAt(b *testing.B) {
	d := CityDrive("city", 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.At(float64(i%3000) * 0.1)
	}
}

func TestPoseSequenceDirect(t *testing.T) {
	seq := PoseSequence{
		Poses: []geom.Euler{geom.EulerDeg(0, 0, 0), geom.EulerDeg(0, 10, 0)},
		Dwell: 5,
	}
	if seq.Duration() != 10 {
		t.Fatalf("duration %v", seq.Duration())
	}
	if seq.Name() != "pose-sequence" {
		t.Fatalf("default name %q", seq.Name())
	}
	seq.Label = "cal"
	if seq.Name() != "cal" {
		t.Fatalf("name %q", seq.Name())
	}
	if seq.At(0).Att == seq.At(6).Att {
		t.Fatal("pose did not change")
	}
	if seq.At(12).Att != seq.At(2).Att {
		t.Fatal("no wraparound")
	}
	// Negative time clamps to the first pose.
	if seq.At(-1).Att != seq.At(0).Att {
		t.Fatal("negative time mishandled")
	}
	for _, c := range []struct {
		t    float64
		want int
	}{{0, 0}, {4.99, 0}, {5, 1}, {6, 1}, {12, 0}, {17, 1}, {-1, 0}, {-6, 0}} {
		if got := seq.PoseIndex(c.t); got != c.want {
			t.Errorf("PoseIndex(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	// Without poses or dwell, At holds the identity attitude.
	for _, deg := range []PoseSequence{{Dwell: 1}, {Poses: seq.Poses}, {Poses: seq.Poses, Dwell: -1}} {
		if i := deg.PoseIndex(3); i != -1 {
			t.Errorf("%+v: PoseIndex = %d, want -1", deg, i)
		}
		if deg.At(3).Att != geom.IdentityQuat() {
			t.Errorf("%+v: At(3) = %v, want identity", deg, deg.At(3).Att)
		}
	}
}
