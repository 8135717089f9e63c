package fleet

import (
	"hash/crc32"
	"runtime"
	"testing"

	"boresight/internal/fault"
	"boresight/internal/geom"
	"boresight/internal/system"
)

// resultGoldenCRC is the CRC-32 (IEEE) over the encoded Result frames
// of goldenCorpus. It pins the numerics across commits: within-commit
// replay tests cannot see a change that shifts every run the same way
// (a new noise generator, a reordered draw, a refactored filter step),
// but this constant can. A change that is meant to move the numbers
// re-pins it and says so in CHANGES.md. The constant is amd64's: Go
// may fuse multiply-adds on other architectures, which rounds
// differently.
const resultGoldenCRC = 0x08377a42

// goldenCorpus is the fixed scenario set behind resultGoldenCRC. The
// fleet specs cover every kind, two tenants, two seeds, calibrated and
// not; the direct configs reach the generators no fleet spec does: the
// link-fault corruption RNG, both per-link fault channels and the
// wheel-speed sensor.
func goldenCorpus(t *testing.T) []system.Config {
	t.Helper()
	var cfgs []system.Config
	for _, kind := range []Kind{KindStatic, KindDynamic, KindUntuned} {
		for _, tenant := range []uint32{1, 7} {
			for _, seed := range []int64{3, 41} {
				for _, noCal := range []bool{false, true} {
					sp := ScenarioSpec{
						Kind: kind, Tenant: tenant, Seed: seed, Dur: 0.5,
						MisDeg: [3]float64{1.5, -2, 0.5}, NoCalibrate: noCal,
					}
					cfg, err := sp.Config()
					if err != nil {
						t.Fatal(err)
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}

	mis := geom.EulerDeg(2, -1, 1.5)
	corrupted := system.StaticScenario(mis, 3, 901)
	corrupted.UseLinks = true
	corrupted.LinkFaultProb = 0.05

	faulted := system.StaticScenario(mis, 3, 902)
	faulted.UseLinks = true
	faulted.FaultProfile = fault.Profile{
		BER: 5e-4, DropProb: 0.01, DupProb: 0.005,
		BurstProb: 0.002, LineBreakProb: 0.001, JitterProb: 0.05, Seed: 5,
	}

	both := system.DynamicScenario(mis, 3, 903)
	both.Duration = 3
	both.Calibrate = false
	both.UseLinks = true
	both.LinkFaultProb = 0.02
	both.FaultProfile = fault.Profile{BER: 1e-3, LineBreakProb: 0.002}

	odom := system.DynamicScenario(mis, 40, 904)
	odom.Calibrate = false
	odom.UseOdometry = true

	return append(cfgs, corrupted, faulted, both, odom)
}

// TestResultGoldenCRC runs goldenCorpus through one reused Runner, the
// way a fleet worker does, encodes every result as the binary protocol
// would, and compares the CRC-32 over all frames with resultGoldenCRC.
// It also checks that the corpus really drew from each generator it is
// meant to pin.
func TestResultGoldenCRC(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("resultGoldenCRC is pinned for amd64, not %s", runtime.GOARCH)
	}
	r := system.NewRunner()
	res := new(system.Result)
	var frames []byte
	var corrupted, channelled, wheeled bool
	for i, cfg := range goldenCorpus(t) {
		if err := r.RunInto(res, cfg); err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		frames = AppendResult(frames, uint32(i), StatusOK, res)
		if cfg.LinkFaultProb > 0 && res.LinkStats.DroppedDMU+res.LinkStats.DroppedACC > 0 {
			corrupted = true
		}
		if res.DMUStream.Channel.BitErrors > 0 && res.ACCStream.Channel.BitErrors > 0 {
			channelled = true
		}
		if res.OdoBiasEst != 0 {
			wheeled = true
		}
	}
	if !corrupted || !channelled || !wheeled {
		t.Fatalf("corpus misses a generator: link faults %v, fault channels %v, wheel sensor %v",
			corrupted, channelled, wheeled)
	}
	if got := crc32.ChecksumIEEE(frames); got != resultGoldenCRC {
		t.Fatalf("result CRC-32 = %#08x, want %#08x: the numerics moved", got, resultGoldenCRC)
	}
}
