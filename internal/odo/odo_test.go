package odo

import (
	"math"
	"testing"

	"boresight/internal/traj"
)

func TestWheelSensorCountsPulses(t *testing.T) {
	w := NewWheelSensor(25, 1)
	w.JitterProb = 0 // exact counting
	total := 0
	// 10 m/s for 2 s at 100 Hz: 20 m × 25 pulses/m = 500 pulses.
	for i := 0; i < 200; i++ {
		total += w.Sample(10, 0.01)
	}
	if total != 500 {
		t.Fatalf("total pulses = %d, want 500", total)
	}
}

func TestWheelSensorNeverNegative(t *testing.T) {
	w := NewWheelSensor(25, 2)
	for i := 0; i < 1000; i++ {
		if n := w.Sample(0.05, 0.01); n < 0 {
			t.Fatal("negative pulse count")
		}
	}
	// Reverse speeds clamp to zero motion.
	if n := w.Sample(-5, 0.01); n < 0 {
		t.Fatal("negative count for reverse")
	}
}

func TestWheelSensorJitterIsZeroMean(t *testing.T) {
	w := NewWheelSensor(25, 3)
	total := 0
	n := 20000
	for i := 0; i < n; i++ {
		total += w.Sample(10, 0.01)
	}
	want := 10.0 * 0.01 * 25 * float64(n)
	if math.Abs(float64(total)-want) > want*0.005 {
		t.Fatalf("jittered total %d, want ~%.0f", total, want)
	}
}

func TestWheelSpeedRoundTrip(t *testing.T) {
	w := NewWheelSensor(25, 4)
	w.JitterProb = 0
	// Averaged over a second the decoded speed matches.
	var sum float64
	for i := 0; i < 100; i++ {
		sum += w.Speed(w.Sample(13.3, 0.01), 0.01)
	}
	if got := sum / 100; math.Abs(got-13.3) > 0.1 {
		t.Fatalf("decoded speed %v, want 13.3", got)
	}
}

func TestAiderRecoversIMUBias(t *testing.T) {
	const bias = 0.08 // a large uncalibrated IMU x bias (m/s²)
	drive := traj.CityDrive("drive", 300)
	w := NewWheelSensor(24.6, 5)
	a := NewAider()
	dt := 0.01
	for ti := 0.0; ti < drive.Duration(); ti += dt {
		st := drive.At(ti)
		speed := st.Vel.Norm()
		odoSpeed := w.Speed(w.Sample(speed, dt), dt)
		imuAx := st.SpecificForce()[0] + bias
		a.Update(dt, odoSpeed, imuAx)
	}
	if !a.Converged() {
		t.Fatal("aider never converged")
	}
	if got := a.Bias(); math.Abs(got-bias) > 0.02 {
		t.Fatalf("bias estimate %v, want %v", got, bias)
	}
}

func TestAiderIgnoresStandstill(t *testing.T) {
	a := NewAider()
	// Stationary: IMU reads a big pitch-leakage value; bias must not
	// absorb it.
	for i := 0; i < 10000; i++ {
		a.Update(0.01, 0, 0.5)
	}
	if a.Bias() != 0 {
		t.Fatalf("bias moved at standstill: %v", a.Bias())
	}
	if a.Converged() {
		t.Fatal("claims convergence without motion")
	}
}

func TestAiderAccelRefTracksTruth(t *testing.T) {
	drive := traj.NewDrive("accel", []traj.Segment{
		{Dur: 5, LongAccel: 2},
		{Dur: 10, LongAccel: 0},
	})
	w := NewWheelSensor(24.6, 6)
	w.JitterProb = 0
	a := NewAider()
	dt := 0.01
	var refAt4 float64
	for ti := 0.0; ti < drive.Duration(); ti += dt {
		st := drive.At(ti)
		odoSpeed := w.Speed(w.Sample(st.Vel.Norm(), dt), dt)
		a.Update(dt, odoSpeed, st.SpecificForce()[0])
		if math.Abs(ti-4.0) < dt/2 {
			refAt4 = a.AccelRef()
		}
	}
	// During the constant-acceleration leg the reference ≈ 2 m/s².
	if math.Abs(refAt4-2) > 0.5 {
		t.Fatalf("accel reference at t=4 is %v, want ~2", refAt4)
	}
}

func TestAiderBadDT(t *testing.T) {
	a := NewAider()
	if got := a.Update(0, 10, 1); got != 0 {
		t.Fatalf("Update with dt=0 returned %v", got)
	}
}

func BenchmarkAiderUpdate(b *testing.B) {
	a := NewAider()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Update(0.01, 12.5, 0.3)
	}
}

func TestAiderGainIncludesDiveCoupling(t *testing.T) {
	// The fitted gain should land near 1 + g·0.006 ≈ 1.06 for the
	// default suspension model (0.006 rad of pitch per m/s²).
	drive := traj.CityDrive("drive", 200)
	w := NewWheelSensor(24.6, 7)
	a := NewAider()
	dt := 0.01
	for ti := 0.0; ti < drive.Duration(); ti += dt {
		st := drive.At(ti)
		odoSpeed := w.Speed(w.Sample(st.Vel.Norm(), dt), dt)
		a.Update(dt, odoSpeed, st.SpecificForce()[0])
	}
	if g := a.Gain(); g < 1.0 || g > 1.15 {
		t.Fatalf("gain = %v, want ~1.06", g)
	}
	// Before convergence the gain reads 0.
	if (NewAider()).Gain() != 0 {
		t.Fatal("unconverged gain nonzero")
	}
}

func TestNewWheelSensorDefaultResolution(t *testing.T) {
	w := NewWheelSensor(0, 1)
	if w.PulsesPerMeter != 24.6 {
		t.Fatalf("default resolution %v", w.PulsesPerMeter)
	}
}
