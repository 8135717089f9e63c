# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fma-check test race cover fuzz bench bench-json sabre-bench vidpipe-smoke fleet-smoke experiments demo clean

# Statement-coverage floor for the estimation-critical packages (the
# fusion core, the fault supervisor, the Kalman engine). All three sit
# well above this today (92-98%); the gate catches a new subsystem
# landing untested, not noise.
COVER_FLOOR := 80.0
COVER_PKGS := ./internal/core/ ./internal/fault/ ./internal/kalman/

# Golden CRC-32 of the corrected frame vidpipe produces at its default
# settings, captured before the stepped-datapath rewrite. The smoke run
# fails if the stepped transforms or pipeline drift by even one bit.
VIDPIPE_GOLDEN := 0x9691b949

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Packages whose results must not depend on the CPU architecture. Go
# may fuse x*y + z into one multiply-add, which rounds once, on arm64
# (and ppc64le, s390x, riscv64) but never on amd64, so a fused op makes
# replay and the amd64-pinned goldens architecture-dependent. An
# explicit float64(x*y) conversion rounds and so prevents the fusion.
# The check builds these packages for arm64 and fails on any fused
# multiply-add in the assembly listing. The serving path is every repo
# package fleetd is built from, fleetd included, read from its import
# closure so that a package joining it is checked without an edit here;
# the recipe fails if go list fails or lists nothing, so the checked set
# cannot shrink to the Sabre packages unnoticed. The integer-only Sabre
# packages are listed by hand. ROADMAP item 8 has the numerics packages
# outside both.
SABRE_PKGS := ./internal/sabre/ ./internal/softfloat/ ./internal/fixed/ ./internal/fxcore/

fma-check:
	@pkgs=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./cmd/fleetd) && [ -n "$$pkgs" ] || \
		{ echo "fma-check: cannot list the packages of ./cmd/fleetd"; exit 1; }; \
	pkgs="$$pkgs $(SABRE_PKGS)"; \
	GOARCH=arm64 $(GO) build $$pkgs || exit 1; \
	fused=$$(GOARCH=arm64 $(GO) build -gcflags=-S $$pkgs 2>&1 | grep -E '\sF(N)?M(ADD|SUB)[DS]\s'); \
	if [ -n "$$fused" ]; then echo "fused multiply-adds in the arm64 build:"; echo "$$fused"; exit 1; fi; \
	echo "fma-check: no fused multiply-adds in" $$pkgs

test:
	$(GO) test ./...

# The deterministic-replay harness under the race detector: proves the
# worker-pool experiment runner and the banded renderers are parallel
# AND bit-for-bit reproducible.
race:
	$(GO) test -race ./...

# Coverage gate: every estimation-critical package must clear
# COVER_FLOOR% statement coverage or the target fails.
cover:
	@$(GO) test -cover $(COVER_PKGS) | tee /dev/stderr | \
	awk -v floor=$(COVER_FLOOR) ' \
		/coverage:/ { \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
				pct = $$(i+1); sub(/%/, "", pct); \
				if (pct + 0 < floor) { bad = bad " " $$2 "(" pct "%)" } \
			} \
		} \
		END { if (bad != "") { print "coverage below " floor "%:" bad; exit 1 } }'

# Short fuzz passes: the ADXL202 duty-cycle codec round-trip, the
# Sabre engine parity oracle (a full minute: it differences the
# reference and fast engines; minimising an interesting input is
# capped at 2 s, since the default 60 s of minimisation would leave no
# time to fuzz), the softfloat intrinsic
# mirrors (result bits AND cycle/instret deltas vs the emulated
# routines), the two link-layer packet parsers (the surfaces a faulted
# wire feeds arbitrary bytes into), the adaptive measurement-noise
# estimator's clamp/skip safety contract under arbitrary outlier, NaN
# and degraded-quality streams, the fleet frame parser (the same frames
# and counters at any split of the stream), one wire scenario
# payload run end to end (rejected, or finite results within the step
# budget Validate charged) and arbitrary POST /v1/batch bodies (200,
# 400 or 413, and a 200 reply accounts for every scenario; minimising
# capped at 2 s, as for engine parity).
fuzz:
	$(GO) test -fuzz=FuzzDutyCycleCodec -fuzztime=30s ./internal/imu/
	$(GO) test -run '^$$' -fuzz=FuzzEngineParity -fuzztime=60s -fuzzminimizetime=2s ./internal/sabre/
	$(GO) test -run '^$$' -fuzz=FuzzSoftFloatIntrinsics -fuzztime=30s ./internal/sabre/
	$(GO) test -run '^$$' -fuzz=FuzzBridgeParser -fuzztime=30s ./internal/link/
	$(GO) test -run '^$$' -fuzz=FuzzACCParser -fuzztime=30s ./internal/link/
	$(GO) test -run '^$$' -fuzz=FuzzAdaptiveR -fuzztime=30s ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzFrameParser -fuzztime=30s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz=FuzzScenarioSpec -fuzztime=30s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz=FuzzHTTPBatch -fuzztime=30s -fuzzminimizetime=2s ./internal/fleet/

# Every paper table/figure and ablation as a benchmark, with logs.
bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark-regression harness: run the suite in short mode (3
# repetitions of 5 iterations each, 10 s simulated experiment
# duration), archive bench/BENCH_<date>.json, and fail on a regression
# against the previous archive (>15% ns/op on the same machine, or any
# allocation on a previously zero-alloc benchmark). benchreport folds
# the -count repetitions into min ns/op + max allocs/op, which is what
# makes a wall-time gate workable on noisy shared hardware. benchreport
# maintains bench/latest.txt (the pointer to the newest archive) itself
# and fails if the pointer names a missing archive. See cmd/benchreport.
bench-json:
	mkdir -p bench
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 5x -count 3 -bench-dur 10 . > bench/raw.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/sabre/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/fault/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/kalman/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkAdaptive|BenchmarkEstimatorStepFull|BenchmarkMultiStepThreeSensors' -benchmem -count 3 ./internal/core/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFleet|BenchmarkParseBatch' -benchmem -count 3 ./internal/fleet/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRunIntoTiny|BenchmarkRunIntoDynamic' -benchmem -count 3 ./internal/system/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench BenchmarkSeedDraw30 -benchmem -count 3 ./internal/rng/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench BenchmarkPipelineQVGAFrame -benchmem -count 3 ./internal/affine/ >> bench/raw.txt
	$(GO) test -run '^$$' -bench BenchmarkTickPipeline -benchmem -count 3 ./internal/hcsim/ >> bench/raw.txt
	$(GO) run ./cmd/benchreport -emit bench -in bench/raw.txt

# Sabre engine comparison only: the reference and fast engines on the
# softfloat Kalman and fixed-point boresight workloads (ns/emulated
# instr, allocation contract), the fast engine with its generated
# kernels bypassed on the same two workloads (and with the SoftFloat
# mirrors bypassed too on Kalman: the library's routine bodies on an
# interpreter that fuses only what the shipped programs dispatch, the
# fallback path of a declining mirror), an integer loop no generated
# kernel covers, plus the one-time predecode cost. Quick iteration
# loop for interpreter work; the full archive/regression pass is
# bench-json.
sabre-bench:
	$(GO) test -run '^$$' -bench 'SabreSoftFloatKalman|SabreFxBoresight' -benchmem -bench-dur 10 .
	$(GO) test -run '^$$' -bench 'SabreKalman|SabreFxBoresightNoKernels|SabreIntLoop|Predecode' -benchmem ./internal/sabre/

# End-to-end video-path smoke run: render, distort, correct on the
# clocked pipeline, and checksum the corrected frame against the
# pre-rewrite golden output.
vidpipe-smoke:
	$(GO) run ./cmd/vidpipe -out $${TMPDIR:-/tmp} -check $(VIDPIPE_GOLDEN)

# Fleet serving smoke: the replay determinism contract (byte-identical
# results at workers 1/2/8 and vs direct system.Run), a quick loopback
# load run over the binary protocol, and the fairness bound — a small
# tenant's p99 while a mega batch is resident must stay within the DRR
# bound (a FIFO queue parks it behind the whole mega batch), with live
# mid-run telemetry arriving on the mega connection.
fleet-smoke:
	$(GO) run ./cmd/fleetload -replay-check
	$(GO) run ./cmd/fleetload -scenarios 2000 -batch 500 -queue 4096
	$(GO) run ./cmd/fleetload -fairness -fairness-check -mega 30000 -queue 65536

# Regenerate the full evaluation report (Table 1, Figs 8-9, Monte
# Carlo, ablations) at the paper's 300 s duration.
experiments:
	$(GO) run ./cmd/experiments -run all -dur 300

# Whole-chip cycle-level co-simulation demo.
demo:
	$(GO) run ./cmd/fpgademo

clean:
	$(GO) clean ./...
