// Command boresight runs one end-to-end boresight scenario — static
// tilting-platform test or dynamic driving test — and prints the
// estimation report: true vs estimated misalignment, errors, the
// filter's 3σ confidence, residual statistics and the resulting video
// correction parameters.
//
// Usage:
//
//	boresight [-mode static|dynamic] [-roll 2] [-pitch -3] [-yaw 1]
//	          [-dur 300] [-seed 1] [-links] [-adaptive] [-adaptiver]
//	          [-selfcal] [-reconfig] [-driftat 0] [-driftfactor 0]
//	          [-focal 400] [-ber 0] [-linebreak 0] [-engine ref|fast]
//
// After the estimation report it replays the paper's "Kalman on Sabre"
// headline: the scalar SoftFloat Kalman filter on the emulated core,
// printing cycles/update and the host-side interpreter throughput
// (MIPS) for the selected execution engine.
package main

import (
	"flag"
	"fmt"
	"os"

	"boresight/internal/fault"
	"boresight/internal/geom"
	"boresight/internal/sabre"
	"boresight/internal/system"
)

func main() {
	mode := flag.String("mode", "static", "test mode: static or dynamic")
	roll := flag.Float64("roll", 2.0, "introduced roll misalignment (degrees)")
	pitch := flag.Float64("pitch", -3.0, "introduced pitch misalignment (degrees)")
	yaw := flag.Float64("yaw", 1.0, "introduced yaw misalignment (degrees)")
	dur := flag.Float64("dur", 300, "run duration (seconds)")
	seed := flag.Int64("seed", 1, "sensor noise seed")
	links := flag.Bool("links", false, "route samples through the CAN/bridge/serial wire path")
	ber := flag.Float64("ber", 0, "wire bit error rate on both links (implies -links)")
	lineBreak := flag.Float64("linebreak", 0, "per-byte line-break probability on both links (implies -links)")
	adaptive := flag.Bool("adaptive", false, "enable residual-driven measurement-noise adaptation")
	adaptiveR := flag.Bool("adaptiver", false, "enable windowed innovation-matched online R-hat estimation")
	selfcal := flag.Bool("selfcal", false, "augment the state with IMU accelerometer bias and scale self-calibration")
	reconfig := flag.Bool("reconfig", false, "hot-swap to a degraded process model when the fault supervisor declares a stream stale")
	driftAt := flag.Float64("driftat", 0, "inject a mid-run ACC noise regime change at this time (seconds; 0 = off)")
	driftFactor := flag.Float64("driftfactor", 0, "noise multiplier applied at -driftat (0 = off)")
	focal := flag.Float64("focal", 400, "camera focal length in pixels (for correction params)")
	csvPath := flag.String("csv", "", "write the residual time series (t, rx, 3σx, ry, 3σy) to this file")
	engName := flag.String("engine", "fast", "Sabre execution engine for the on-core Kalman check: ref or fast")
	flag.Parse()

	eng, err := sabre.ParseEngine(*engName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "boresight:", err)
		os.Exit(2)
	}
	opts := options{
		adaptive: *adaptive, adaptiveR: *adaptiveR, selfcal: *selfcal,
		reconfig: *reconfig, driftAt: *driftAt, driftFactor: *driftFactor,
	}
	if err := realMain(*mode, *roll, *pitch, *yaw, *dur, *seed, *links, opts, *focal, *ber, *lineBreak, *csvPath, eng); err != nil {
		fmt.Fprintln(os.Stderr, "boresight:", err)
		os.Exit(1)
	}
}

// options groups the estimator-shaping flags.
type options struct {
	adaptive, adaptiveR, selfcal, reconfig bool
	driftAt, driftFactor                   float64
}

func realMain(mode string, roll, pitch, yaw, dur float64, seed int64, links bool, opts options, focal, ber, lineBreak float64, csvPath string, eng sabre.Engine) error {
	mis := geom.EulerDeg(roll, pitch, yaw)
	var cfg system.Config
	switch mode {
	case "static":
		cfg = system.StaticScenario(mis, dur, seed)
	case "dynamic":
		cfg = system.DynamicScenario(mis, dur, seed)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	if ber < 0 || ber >= 1 {
		return fmt.Errorf("-ber %v outside [0, 1)", ber)
	}
	if lineBreak < 0 || lineBreak >= 1 {
		return fmt.Errorf("-linebreak %v outside [0, 1)", lineBreak)
	}
	cfg.FaultProfile = fault.Profile{BER: ber, LineBreakProb: lineBreak}
	faulted := cfg.FaultProfile.Enabled()
	cfg.UseLinks = links || faulted // faults live on the wire: they imply the wire path
	cfg.Filter.Adaptive = opts.adaptive
	cfg.Filter.AdaptiveR.Enabled = opts.adaptiveR
	if opts.selfcal {
		cfg.Filter.EstimateIMUBias = true
		cfg.Filter.EstimateIMUScale = true
	}
	cfg.ReconfigureOnFault = opts.reconfig
	cfg.NoiseDriftAt = opts.driftAt
	cfg.NoiseDriftFactor = opts.driftFactor
	cfg.ResidualStride = 100
	if csvPath != "" {
		cfg.ResidualStride = 10
	}

	fmt.Printf("boresight %s test: %.0f s at %.0f Hz, seed %d\n", mode, dur, cfg.SampleRate, seed)
	fmt.Printf("introduced misalignment: roll %+.3f°, pitch %+.3f°, yaw %+.3f°\n", roll, pitch, yaw)
	res, err := system.Run(cfg)
	if err != nil {
		return err
	}
	er, ep, ey := res.Estimated.Deg()
	fmt.Printf("estimated misalignment:  roll %+.3f°, pitch %+.3f°, yaw %+.3f°\n", er, ep, ey)
	fmt.Printf("absolute errors:         roll %.4f°, pitch %.4f°, yaw %.4f°\n",
		res.ErrorDeg[0], res.ErrorDeg[1], res.ErrorDeg[2])
	fmt.Printf("3σ confidence:           roll %.4f°, pitch %.4f°, yaw %.4f°  (within: %v)\n",
		res.ThreeSigmaDeg[0], res.ThreeSigmaDeg[1], res.ThreeSigmaDeg[2], res.WithinConfidence)
	fmt.Printf("estimated ACC biases:    %+.4f, %+.4f m/s²\n", res.BiasEst[0], res.BiasEst[1])
	fmt.Printf("residual 3σ exceedance:  %.2f%% of %d updates (expect ~1%% when tuned)\n",
		100*res.ExceedanceRate, res.Steps)
	fmt.Printf("final measurement noise: %.4f m/s²\n", res.FinalMeasNoise)
	if opts.adaptiveR {
		fmt.Printf("online R-hat sigma:      %.4f, %.4f m/s² (mean NIS %.2f, expect ~2)\n",
			res.RHatSigma[0], res.RHatSigma[1], res.MeanNIS)
	}
	if opts.selfcal {
		ib, is := res.IMUBiasEst, res.IMUScaleEst
		fmt.Printf("IMU self-calibration:    bias %+.4f %+.4f %+.4f m/s², scale %+.5f %+.5f %+.5f\n",
			ib[0], ib[1], ib[2], is[0], is[1], is[2])
	}
	if opts.reconfig {
		fmt.Printf("runtime reconfigurations: %d\n", res.Reconfigs)
	}
	if cfg.UseLinks {
		fmt.Printf("wire path: %d CAN frames (%d bits), %d bridge bytes, %d ACC packets\n",
			res.LinkStats.CANFrames, res.LinkStats.CANBits,
			res.LinkStats.BridgeByts, res.LinkStats.ACCPackets)
	}
	if faulted {
		fmt.Printf("channel faults (BER %.0e, line-break %.0e):\n", ber, lineBreak)
		printStream("  DMU link", res.DMUStream, res.LinkStats.DroppedDMU)
		printStream("  ACC link", res.ACCStream, res.LinkStats.DroppedACC)
		fmt.Printf("  fusion: %d held updates, %d dropout epochs, %d gated outliers\n",
			res.HeldUpdates, res.DropoutEpochs, res.Gated)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "t,rx,sx3,ry,sy3")
		for _, r := range res.Residuals {
			fmt.Fprintf(f, "%.3f,%.6f,%.6f,%.6f,%.6f\n", r.T, r.RX, 3*r.SX, r.RY, 3*r.SY)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("residual series:         wrote %s (%d rows)\n", csvPath, len(res.Residuals))
	}
	p := system.CorrectionParams(res.Estimated, focal)
	fmt.Printf("video correction (focal %.0f px): rotate %+.3f°, shift (%+.1f, %+.1f) px\n",
		focal, geom.Rad2Deg(p.Theta), p.TX, p.TY)
	return sabreKalmanHeadline(eng)
}

// printStream reports one link's degradation telemetry.
func printStream(name string, s system.StreamStats, dropped int) {
	fmt.Printf("%s: %d bytes, %d bit errors, %d framing errors, %d dropped bytes, %d breaks; "+
		"epochs %d good / %d held / %d stale (longest outage %d), %d lost packets\n",
		name, s.Channel.Bytes, s.Channel.BitErrors, s.Channel.FramingErrors,
		s.Channel.Dropped, s.Channel.LineBreaks,
		s.Good, s.Held, s.Stale, s.LongestOutage, dropped)
}

// sabreKalmanHeadline reruns the paper's on-core workload — the scalar
// Kalman filter computed with the SoftFloat library on the emulated
// Sabre CPU — and reports the cycle cost and the host interpreter
// throughput for the selected engine.
func sabreKalmanHeadline(eng sabre.Engine) error {
	const n = 200
	z := make([]float32, n)
	truth := float32(3.25)
	for i := range z {
		// Deterministic pseudo-noise so the number is reproducible.
		z[i] = truth + float32((i*2654435761)%1000-500)/2000
	}
	res, err := sabre.RunKalmanEngine(eng, 1e-6, 0.25, 100, 0, z)
	if err != nil {
		return err
	}
	fmt.Printf("Kalman on Sabre (engine %s): %.0f cycles/update, %.0f updates/s at 25 MHz",
		eng, res.CyclesPerUpdate, 25e6/res.CyclesPerUpdate)
	if res.WallSeconds > 0 {
		fmt.Printf(", %.1f MIPS host", float64(res.Instructions)/res.WallSeconds/1e6)
	}
	if res.Compiled != nil {
		fmt.Printf("; %s", res.Compiled.Summary())
	}
	fmt.Println()
	return nil
}
