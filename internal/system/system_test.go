package system

import (
	"math"
	"testing"

	"boresight/internal/geom"
	"boresight/internal/traj"
)

func TestStaticRunRecoversMisalignment(t *testing.T) {
	mis := geom.EulerDeg(1.5, -2.0, 1.0)
	cfg := StaticScenario(mis, 300, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's static results are accurate to small fractions of a
	// degree; demand a tenth of a degree from the simulation.
	for i, e := range res.ErrorDeg {
		if e > 0.1 {
			t.Errorf("axis %d error %.4f° too large (3σ=%.4f°)", i, e, res.ThreeSigmaDeg[i])
		}
	}
	if !res.WithinConfidence {
		t.Error("errors exceed the filter's 3σ confidence")
	}
	if res.Steps != 30000 {
		t.Errorf("steps = %d", res.Steps)
	}
	// 3σ must have converged well under a degree.
	for i, s := range res.ThreeSigmaDeg {
		if s > 0.5 {
			t.Errorf("axis %d 3σ = %.4f° did not converge", i, s)
		}
	}
}

func TestDynamicRunRecoversMisalignment(t *testing.T) {
	mis := geom.EulerDeg(2.0, 1.0, -1.5)
	cfg := DynamicScenario(mis, 300, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.ErrorDeg {
		if e > 0.3 {
			t.Errorf("axis %d error %.4f° too large for dynamic run", i, e)
		}
	}
	// Residual exceedance must be in the healthy band (tuned noise).
	if res.ExceedanceRate > 0.05 {
		t.Errorf("exceedance rate %.4f too high for tuned filter", res.ExceedanceRate)
	}
}

func TestUntunedDynamicShowsFig8Effect(t *testing.T) {
	mis := geom.EulerDeg(1, 1, 1)
	tuned, err := Run(DynamicScenario(mis, 120, 3))
	if err != nil {
		t.Fatal(err)
	}
	untuned, err := Run(DynamicScenarioUntuned(mis, 120, 3))
	if err != nil {
		t.Fatal(err)
	}
	if untuned.ExceedanceRate < 5*tuned.ExceedanceRate {
		t.Errorf("untuned exceedance %.4f not clearly above tuned %.4f",
			untuned.ExceedanceRate, tuned.ExceedanceRate)
	}
	if untuned.ExceedanceRate < 0.05 {
		t.Errorf("untuned exceedance %.4f too low to reproduce Figure 8", untuned.ExceedanceRate)
	}
}

func TestRunThroughLinksMatchesDirectClosely(t *testing.T) {
	mis := geom.EulerDeg(1.2, -0.8, 0.5)
	direct := StaticScenario(mis, 60, 4)
	linked := StaticScenario(mis, 60, 4)
	linked.UseLinks = true
	rd, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(linked)
	if err != nil {
		t.Fatal(err)
	}
	// The links only quantise (CAN payload LSBs, duty-cycle counts);
	// estimates must agree to a few hundredths of a degree.
	for i := range rd.ErrorDeg {
		if d := math.Abs(rd.ErrorDeg[i] - rl.ErrorDeg[i]); d > 0.05 {
			t.Errorf("axis %d: direct %.4f° vs linked %.4f°", i, rd.ErrorDeg[i], rl.ErrorDeg[i])
		}
	}
	// Transport counters populated.
	if rl.LinkStats.CANFrames != rl.Steps || rl.LinkStats.ACCPackets != rl.Steps {
		t.Errorf("link stats %+v inconsistent with %d steps", rl.LinkStats, rl.Steps)
	}
	if rl.LinkStats.CANBits < rl.LinkStats.CANFrames*44 {
		t.Errorf("CAN bit count %d too small", rl.LinkStats.CANBits)
	}
}

func TestCalibrationImprovesBiasedRun(t *testing.T) {
	mis := geom.EulerDeg(1, -1, 0.5)
	with := StaticScenario(mis, 120, 5)
	with.Calibrate = true
	without := StaticScenario(mis, 120, 5)
	without.Calibrate = false
	// Make the run hard: big ACC biases.
	for _, c := range []*Config{&with, &without} {
		c.ACC.Axes[0].Bias = 0.08
		c.ACC.Axes[1].Bias = -0.06
	}
	rw, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	sumW := rw.ErrorDeg[0] + rw.ErrorDeg[1] + rw.ErrorDeg[2]
	sumO := ro.ErrorDeg[0] + ro.ErrorDeg[1] + ro.ErrorDeg[2]
	if sumW > sumO+0.02 {
		t.Errorf("calibrated run (%.4f°) worse than uncalibrated (%.4f°)", sumW, sumO)
	}
	// Calibrated bias estimate lands near the injected bias.
	if math.Abs(rw.BiasEst[0]-0.08) > 0.02 {
		t.Errorf("bias estimate %.4f, injected 0.08", rw.BiasEst[0])
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestResidualStride(t *testing.T) {
	cfg := StaticScenario(geom.EulerDeg(1, 0, 0), 10, 6)
	cfg.ResidualStride = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Residuals) != res.Steps/10 {
		t.Fatalf("residuals %d for %d steps at stride 10", len(res.Residuals), res.Steps)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	mis := geom.EulerDeg(0.7, 0.3, -0.2)
	a, err := Run(StaticScenario(mis, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(StaticScenario(mis, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimated != b.Estimated {
		t.Fatal("same seed produced different results")
	}
	c, err := Run(StaticScenario(mis, 30, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimated == c.Estimated {
		t.Fatal("different seeds produced identical results")
	}
}

func TestTwoDynamicRunsAgree(t *testing.T) {
	// Table 1 (bottom): two driving tests "show very close agreement".
	mis := geom.EulerDeg(2.5, -1.0, 1.2)
	r1, err := Run(DynamicScenario(mis, 300, 10))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(DynamicScenario(mis, 300, 20))
	if err != nil {
		t.Fatal(err)
	}
	d := []float64{
		math.Abs(geom.Rad2Deg(r1.Estimated.Roll - r2.Estimated.Roll)),
		math.Abs(geom.Rad2Deg(r1.Estimated.Pitch - r2.Estimated.Pitch)),
		math.Abs(geom.Rad2Deg(r1.Estimated.Yaw - r2.Estimated.Yaw)),
	}
	for i, v := range d {
		if v > 0.2 {
			t.Errorf("axis %d: run-to-run disagreement %.4f°", i, v)
		}
	}
}

func TestPoseSequence(t *testing.T) {
	seq := StaticTestPoses(60)
	if seq.Duration() != 60 {
		t.Fatalf("duration = %v", seq.Duration())
	}
	// Pose changes at dwell boundaries.
	a := seq.At(0).Att
	b := seq.At(seq.Dwell + 0.1).Att
	if a == b {
		t.Fatal("pose did not change after dwell")
	}
	// Wraps around.
	if seq.At(61).Att != seq.At(1).Att {
		t.Fatal("sequence does not repeat")
	}
	// Degenerate sequence is level.
	if (traj.PoseSequence{}).At(5).Att != geom.IdentityQuat() {
		t.Fatal("empty sequence not level")
	}
}

func BenchmarkStaticRun30s(b *testing.B) {
	cfg := StaticScenario(geom.EulerDeg(1, -1, 0.5), 30, 1)
	cfg.ResidualStride = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkedRun10s(b *testing.B) {
	cfg := StaticScenario(geom.EulerDeg(1, -1, 0.5), 10, 1)
	cfg.UseLinks = true
	cfg.ResidualStride = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLinkFaultInjection(t *testing.T) {
	mis := geom.EulerDeg(1.5, -1.0, 0.8)
	clean := StaticScenario(mis, 60, 9)
	clean.UseLinks = true
	faulty := StaticScenario(mis, 60, 9)
	faulty.UseLinks = true
	faulty.LinkFaultProb = 0.05 // 5% of samples lose a packet per link

	rc, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	// Faults were actually injected and counted.
	drops := rf.LinkStats.DroppedDMU + rf.LinkStats.DroppedACC
	if drops < rf.Steps/50 {
		t.Fatalf("only %d drops over %d steps at 5%% fault rate", drops, rf.Steps)
	}
	// The parsers recover: the filter still converges close to the
	// clean run despite the EMI bursts.
	for i := range rc.ErrorDeg {
		if rf.ErrorDeg[i] > rc.ErrorDeg[i]+0.1 {
			t.Errorf("axis %d: faulty error %.4f° vs clean %.4f°", i, rf.ErrorDeg[i], rc.ErrorDeg[i])
		}
	}
	if !rf.WithinConfidence {
		t.Error("faulty run left its own 3σ envelope")
	}
}

func TestLinkFaultStormStillConverges(t *testing.T) {
	// A brutal 30% fault rate: a third of all packets die. Sample-and-
	// hold plus checksum rejection must still deliver a usable result.
	mis := geom.EulerDeg(2, 1, -1)
	cfg := StaticScenario(mis, 60, 10)
	cfg.UseLinks = true
	cfg.LinkFaultProb = 0.30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.ErrorDeg {
		if e > 0.3 {
			t.Errorf("axis %d error %.4f° under fault storm", i, e)
		}
	}
	if res.LinkStats.DroppedDMU == 0 || res.LinkStats.DroppedACC == 0 {
		t.Error("fault storm dropped nothing")
	}
}

func TestOdometryAidedRun(t *testing.T) {
	// System-level wheel aiding: a biased IMU on a drive, minimal
	// filter; odometry must recover the bias.
	mis := geom.EulerDeg(1, -1, 0.5)
	cfg := DynamicScenario(mis, 200, 11)
	cfg.Calibrate = false
	cfg.Filter.EstimateBias = false
	cfg.Filter.EstimateScale = false
	cfg.DMU.Accel[0].Bias = 0.06
	cfg.ACC.Axes[0].Bias = 0
	cfg.ACC.Axes[1].Bias = 0
	cfg.UseOdometry = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OdoBiasEst-0.06) > 0.02 {
		t.Errorf("odometry bias estimate %.4f, injected 0.06", res.OdoBiasEst)
	}
}
