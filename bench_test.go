// Package bench is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (Section 11) plus the ablation
// studies, one testing.B benchmark per artefact. Each benchmark runs
// the same workload the corresponding report command runs (shortened
// from the paper's 300 s to keep -bench wall time reasonable; pass
// -bench-dur to change it) and logs the headline numbers so a
// `go test -bench=.` transcript doubles as an experiment record.
package bench

import (
	"flag"
	"io"
	"runtime"
	"testing"

	"boresight/internal/affine"
	"boresight/internal/experiments"
	"boresight/internal/fixed"
	"boresight/internal/fxcore"
	"boresight/internal/geom"
	"boresight/internal/sabre"
	"boresight/internal/system"
	"boresight/internal/video"
)

var benchDur = flag.Float64("bench-dur", 60, "simulated seconds per boresight run in benchmarks")

// BenchmarkTable1Static regenerates the top half of Table 1: static
// tilting-platform boresight runs.
func BenchmarkTable1Static(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mis := geom.EulerDeg(2, -3, 1)
		cfg := system.StaticScenario(mis, *benchDur, int64(100+i))
		cfg.ResidualStride = 1000
		res, err := system.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("static: err %.4f/%.4f/%.4f°, 3σ %.4f/%.4f/%.4f°, within=%v",
				res.ErrorDeg[0], res.ErrorDeg[1], res.ErrorDeg[2],
				res.ThreeSigmaDeg[0], res.ThreeSigmaDeg[1], res.ThreeSigmaDeg[2],
				res.WithinConfidence)
		}
	}
}

// BenchmarkTable1Dynamic regenerates the bottom half of Table 1:
// driving runs with vibration and raised measurement noise.
func BenchmarkTable1Dynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mis := geom.EulerDeg(2, -3, 1)
		cfg := system.DynamicScenario(mis, *benchDur, int64(200+i))
		cfg.ResidualStride = 1000
		res, err := system.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("dynamic: err %.4f/%.4f/%.4f°, exceed %.2f%%",
				res.ErrorDeg[0], res.ErrorDeg[1], res.ErrorDeg[2],
				100*res.ExceedanceRate)
		}
	}
}

// BenchmarkFig8Residuals regenerates Figure 8's three residual series
// (static tuned, dynamic under-modelled, dynamic tuned).
func BenchmarkFig8Residuals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig8(io.Discard, *benchDur)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("exceedance: static %.2f%%, under-modelled %.2f%%, tuned %.2f%%",
				100*series[0].ExceedanceRate, 100*series[1].ExceedanceRate,
				100*series[2].ExceedanceRate)
		}
	}
}

// BenchmarkFig9Convergence regenerates Figure 9's dynamic convergence
// history.
func BenchmarkFig9Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(io.Discard, *benchDur)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("settle (±0.1° of final): roll %.1f s, pitch %.1f s, yaw %.1f s",
				res.Settle[0], res.Settle[1], res.Settle[2])
		}
	}
}

// BenchmarkAblationFixedPoint sweeps fixed-point vs float affine
// accuracy (Section 12's fixed-point-conversion remark).
func BenchmarkAblationFixedPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationFixedPoint(io.Discard, 0)
		if i == 0 {
			b.Logf("PSNR at %g°: %.1f dB; at %g°: %.1f dB",
				rows[0].AngleDeg, rows[0].PSNRdB,
				rows[len(rows)-1].AngleDeg, rows[len(rows)-1].PSNRdB)
		}
	}
}

// BenchmarkAblationLUTSize sweeps the sine/cosine table size around the
// paper's 1024 entries.
func BenchmarkAblationLUTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationLUTSize(io.Discard, 0)
		if i == 0 {
			for _, r := range rows {
				if r.Size == 1024 {
					b.Logf("1024-entry LUT: max trig err %.5f", r.MaxTrigErr)
				}
			}
		}
	}
}

// BenchmarkAblationNoiseSweep sweeps the measurement-noise tuning over
// the paper's 0.003–0.05 m/s² range on the dynamic test.
func BenchmarkAblationNoiseSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationNoiseSweep(io.Discard, *benchDur, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("σ=%.3f: exceed %.1f%%; σ=%.3f: exceed %.1f%%",
				rows[0].MeasNoise, 100*rows[0].ExceedanceRate,
				rows[len(rows)-1].MeasNoise, 100*rows[len(rows)-1].ExceedanceRate)
		}
	}
}

// BenchmarkAblationSabreSoftfloat measures IEEE-emulation cost on the
// soft core (Section 10).
func BenchmarkAblationSabreSoftfloat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSabreSoftfloat(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: %.0f cycles", r.Routine, r.CyclesPerOp)
			}
		}
	}
}

// BenchmarkAblationStateModel compares filter state vectors on
// uncalibrated, biased instruments.
func BenchmarkAblationStateModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationStateModel(io.Discard, *benchDur, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: Σ|err| %.4f°", r.Model, r.SumErrDeg)
			}
		}
	}
}

// BenchmarkAblationRunLength sweeps the observation window (Section
// 12's "time allowed for the filter").
func BenchmarkAblationRunLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationRunLength(io.Discard, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%g s: Σ3σ %.4f°; %g s: Σ3σ %.4f°",
				rows[0].Duration, rows[0].Sig3Sum,
				rows[len(rows)-1].Duration, rows[len(rows)-1].Sig3Sum)
		}
	}
}

// BenchmarkVideoPipelineFrame runs one QVGA frame through the clocked
// five-stage affine pipeline (Section 8/9's real-time datapath).
func BenchmarkVideoPipelineFrame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.VideoPipelineReport(io.Discard, 320, 240)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%d cycles/frame, %.1f fps at 25 MHz", rep.CyclesPerFrame, rep.FPSAt25MHz)
		}
	}
}

// BenchmarkAblationVehicleData evaluates wheel-speed aiding of an
// uncalibrated IMU (Section 12's "fusion of data from the vehicle").
func BenchmarkAblationVehicleData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationVehicleData(io.Discard, *benchDur)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: Σ|err| %.4f°", r.Mode, r.SumErrDeg)
			}
		}
	}
}

// BenchmarkMonteCarloCoverage measures the empirical 3σ coverage behind
// the paper's "99% confidence" claim over repeated seeded trials.
func BenchmarkMonteCarloCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, dy, err := experiments.MonteCarlo(io.Discard, 10, *benchDur, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("static coverage %.1f%%, dynamic coverage %.1f%%",
				100*st.Coverage, 100*dy.Coverage)
		}
	}
}

// BenchmarkAblationLeverArm evaluates the lever-arm (self-referencing)
// extension: misalignment bias from an unmodelled mounting offset, and
// its recovery when the three lever states are estimated.
func BenchmarkAblationLeverArm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLeverArm(io.Discard, *benchDur)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: Σ|err| %.4f°", r.Mode, r.SumErrDeg)
			}
		}
	}
}

// BenchmarkBumpRealignment measures continuous realignment after a
// mid-run mounting disturbance (the paper's "car park bump").
func BenchmarkBumpRealignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, without, err := experiments.Bump(io.Discard, *benchDur*2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("re-acquired in %.1f s with recovery; without: %.1f s (-1 = never)",
				with.ReconvergeSecs, without.ReconvergeSecs)
		}
	}
}

// benchmarkMonteCarloWorkers runs the Monte Carlo study at a fixed
// worker-pool size. The trials and duration are fixed (not *benchDur)
// so the Workers1/4/N series are directly comparable: same work, only
// the pool size changes, and the deterministic seed-per-trial scheme
// guarantees identical aggregate statistics at every size.
func benchmarkMonteCarloWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		st, dy, err := experiments.MonteCarlo(io.Discard, 8, 30, workers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("workers=%d (0 = all %d CPUs): static coverage %.1f%%, dynamic coverage %.1f%%, mean err %.4f°/%.4f°",
				workers, runtime.GOMAXPROCS(0),
				100*st.Coverage, 100*dy.Coverage, st.MeanErrDeg, dy.MeanErrDeg)
		}
	}
}

// BenchmarkMonteCarloWorkers1 is the serial baseline of the trial
// runner; compare its ns/op against Workers4 / WorkersN for the
// speedup (the logged statistics must not move at all).
func BenchmarkMonteCarloWorkers1(b *testing.B) { benchmarkMonteCarloWorkers(b, 1) }

// BenchmarkMonteCarloWorkers4 runs the same study on a 4-worker pool.
func BenchmarkMonteCarloWorkers4(b *testing.B) { benchmarkMonteCarloWorkers(b, 4) }

// BenchmarkMonteCarloWorkersN runs the same study with one worker per
// CPU.
func BenchmarkMonteCarloWorkersN(b *testing.B) { benchmarkMonteCarloWorkers(b, 0) }

// benchmarkAffine transforms a VGA road scene through both banded
// paths (float64 reference, then the fixed-point datapath) at a fixed
// worker count.
func benchmarkAffine(b *testing.B, workers int) {
	src := video.RoadScene{W: 640, H: 480}.RenderWorkers(workers)
	ft := affine.NewFixedTransformer(fixed.NewTrig(1024, fixed.TrigFrac))
	p := affine.Params{Theta: geom.Deg2Rad(3.3), TX: 4, TY: -2}
	// Destination frames are reused across iterations — the steady state
	// of a video pipeline recycling buffers through a video.FramePool.
	fl := video.NewFrame(src.W, src.H)
	fx := video.NewFrame(src.W, src.H)
	// Untimed warm-up: faults in the destination pages, checks the
	// fixed-vs-float agreement once, and keeps the Logf allocation out
	// of the timed loop so the loop measures the bare kernels.
	affine.TransformFloatInto(fl, src, p, false, workers)
	ft.TransformInto(fx, src, p, workers)
	b.Logf("workers=%d: mean |fixed−float| %.3f", workers, video.MeanAbsDiff(fx, fl))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		affine.TransformFloatInto(fl, src, p, false, workers)
		ft.TransformInto(fx, src, p, workers)
	}
}

// BenchmarkAffineSerial is the one-worker scanline baseline.
func BenchmarkAffineSerial(b *testing.B) { benchmarkAffine(b, 1) }

// BenchmarkAffineParallel renders the same frames banded across all
// CPUs; output is bit-identical to the serial baseline.
func BenchmarkAffineParallel(b *testing.B) { benchmarkAffine(b, 0) }

// affineBenchFrames builds the shared VGA workload of the per-kernel
// affine benchmarks: a rendered road scene source and a reused
// destination (the steady state of a pool-recycled video pipeline).
func affineBenchFrames() (src, dst *video.Frame, p affine.Params) {
	src = video.RoadScene{W: 640, H: 480}.RenderWorkers(1)
	dst = video.NewFrame(src.W, src.H)
	return src, dst, affine.Params{Theta: geom.Deg2Rad(3.3), TX: 4, TY: -2}
}

// BenchmarkAffineFixed measures the fixed-point (Q9.6 / Q1.14 LUT)
// frame transform alone at workers=1 — the software mirror of the
// Figure 5 address generator, and the regression anchor for the
// incremental scanline datapath (ns/op here is ns/frame; divide by
// 640*480 for ns/pixel).
func BenchmarkAffineFixed(b *testing.B) {
	src, dst, p := affineBenchFrames()
	ft := affine.NewFixedTransformer(fixed.NewTrig(1024, fixed.TrigFrac))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.TransformInto(dst, src, p, 1)
	}
}

// BenchmarkAffineFloat measures the float64 nearest-neighbour reference
// transform alone at workers=1.
func BenchmarkAffineFloat(b *testing.B) {
	src, dst, p := affineBenchFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		affine.TransformFloatInto(dst, src, p, false, 1)
	}
}

// BenchmarkAffineFloatBilinear measures the float64 bilinear transform
// alone at workers=1.
func BenchmarkAffineFloatBilinear(b *testing.B) {
	src, dst, p := affineBenchFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		affine.TransformFloatInto(dst, src, p, true, 1)
	}
}

// benchmarkSabreKalman runs the SoftFloat scalar Kalman program (the
// paper's Section 10 workload) on a reusable emulated core with the
// given engine. The program is loaded once; each iteration rewrites
// the input memory, resets the core, and re-runs — the steady state of
// a core re-triggered per sensor epoch, and allocation-free on both
// engines (the fast engine's predecode survives Reset).
func benchmarkSabreKalman(b *testing.B, eng sabre.Engine) {
	prog, err := sabre.KalmanProgram()
	if err != nil {
		b.Fatal(err)
	}
	c := sabre.New()
	c.Engine = eng
	if err := c.LoadProgram(prog.Words); err != nil {
		b.Fatal(err)
	}
	const n = 100
	z := make([]float32, n)
	for i := range z {
		z[i] = 3.25 + float32((i*2654435761)%1000-500)/2000
	}
	run := func() {
		sabre.SetKalmanInputs(c, 1e-6, 0.25, 100, 0, z)
		c.Reset()
		if _, err := c.Run(sabre.KalmanRunBudget(n)); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm-up: pays the one-time predecode allocation
	b.Logf("engine=%s: %d cycles/update, %d instructions/run",
		eng, c.Cycles/n, c.Instret)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Instret)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSabreSoftFloatKalmanRef is the reference decode-per-step
// interpreter baseline for the on-core Kalman workload.
func BenchmarkSabreSoftFloatKalmanRef(b *testing.B) { benchmarkSabreKalman(b, sabre.EngineRef) }

// BenchmarkSabreSoftFloatKalmanFast runs the same workload on the
// fast engine, where the Kalman program's generated kernel binds. The
// cycle counts logged by both benchmarks must be identical; only ns/op
// may differ.
func BenchmarkSabreSoftFloatKalmanFast(b *testing.B) { benchmarkSabreKalman(b, sabre.EngineFast) }

// benchmarkSabreFxBoresight runs the integer-only S8.24 boresight
// fusion filter program on a reusable core with the given engine.
func benchmarkSabreFxBoresight(b *testing.B, eng sabre.Engine) {
	prog, err := sabre.FxBoresightProgram()
	if err != nil {
		b.Fatal(err)
	}
	c := sabre.New()
	c.Engine = eng
	if err := c.LoadProgram(prog.Words); err != nil {
		b.Fatal(err)
	}
	cfg := fxcore.DefaultConfig()
	const n = 20
	inputs := make([]sabre.FxBoresightInput, n)
	for i := range inputs {
		inputs[i] = sabre.FxBoresightInput{
			F:  geom.Vec3{0.3, -0.2, 9.7},
			AX: 0.31, AY: -0.18,
		}
	}
	run := func() {
		sabre.LoadFxBoresightInputs(c, cfg, 0.01, inputs)
		c.Reset()
		if _, err := c.Run(sabre.FxBoresightRunBudget(n)); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.Logf("engine=%s: %d cycles/update", eng, c.Cycles/n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Instret)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSabreFxBoresightRef is the reference-engine baseline for
// the fixed-point fusion filter program.
func BenchmarkSabreFxBoresightRef(b *testing.B) { benchmarkSabreFxBoresight(b, sabre.EngineRef) }

// BenchmarkSabreFxBoresightFast runs the fixed-point fusion filter on
// the fast engine, where its generated kernel binds.
func BenchmarkSabreFxBoresightFast(b *testing.B) { benchmarkSabreFxBoresight(b, sabre.EngineFast) }
