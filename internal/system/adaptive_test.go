package system

import (
	"testing"

	"boresight/internal/fault"
	"boresight/internal/geom"
)

// TestNoiseDriftAdaptiveTracksRegimeChange: a mid-run ACC noise regime
// change must be visible in the adaptive filter's final R-hat, while
// the fixed-R path keeps reporting the configured sigma.
func TestNoiseDriftAdaptiveTracksRegimeChange(t *testing.T) {
	mis := geom.EulerDeg(1.5, -1, 0.5)
	cfg := StaticScenario(mis, 60, 31)
	cfg.NoiseDriftAt = 20
	cfg.NoiseDriftFactor = 4
	cfg.Filter.AdaptiveR.Enabled = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sig := cfg.Filter.MeasNoise
	if res.RHatSigma[0] < 1.5*sig || res.RHatSigma[1] < 1.5*sig {
		t.Errorf("R-hat (%.4f, %.4f) did not track the x4 noise step from sigma %.4f",
			res.RHatSigma[0], res.RHatSigma[1], sig)
	}

	fixed := cfg
	fixed.Filter.AdaptiveR.Enabled = false
	fres, err := Run(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if fres.RHatSigma[0] != sig || fres.RHatSigma[1] != sig {
		t.Errorf("fixed-R run reports R-hat (%.4f, %.4f), want configured %.4f",
			fres.RHatSigma[0], fres.RHatSigma[1], sig)
	}
	// The adaptive filter re-weights and stays statistically honest; the
	// fixed filter over-trusts its measurements after the step.
	if res.MeanNIS >= fres.MeanNIS {
		t.Errorf("adaptive mean NIS %.2f not below fixed %.2f under noise drift",
			res.MeanNIS, fres.MeanNIS)
	}
}

// TestReconfigureOnFaultHotSwaps forces a stream Stale under heavy
// channel faults and checks the supervisor-driven hot swap actually
// fires — and that the run survives it with its accounting intact.
func TestReconfigureOnFaultHotSwaps(t *testing.T) {
	mis := geom.EulerDeg(2, -1, 0.5)
	cfg := StaticScenario(mis, 30, 33)
	cfg.UseLinks = true
	cfg.ReconfigureOnFault = true
	cfg.FaultProfile = fault.Profile{
		LineBreakProb: 0.0005,
		DropProb:      0.02,
		StaleAfter:    3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DropoutEpochs == 0 {
		t.Fatal("fault profile produced no dropout epochs; the swap path was never stressed")
	}
	if res.Reconfigs == 0 {
		t.Error("no hot swap fired despite Stale epochs")
	}
	// Same stream without the swap must replay identically at the
	// sensor level — reconfiguration changes only the filter.
	plain := cfg
	plain.ReconfigureOnFault = false
	pres, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Reconfigs != 0 {
		t.Errorf("Reconfigs = %d with ReconfigureOnFault off", pres.Reconfigs)
	}
	if pres.DropoutEpochs != res.DropoutEpochs || pres.HeldUpdates != res.HeldUpdates {
		t.Errorf("swap changed the degradation telemetry: dropouts %d vs %d, held %d vs %d",
			res.DropoutEpochs, pres.DropoutEpochs, res.HeldUpdates, pres.HeldUpdates)
	}
}
