package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"boresight/internal/affine"
	"boresight/internal/fleet"
	"boresight/internal/geom"
	"boresight/internal/imu"
	"boresight/internal/sabre"
	"boresight/internal/traj"
	"boresight/internal/video"
)

// Every input the benchmark feeds the program comes from the generators
// in this file, each drawing from its own stream of the run seed, so the
// same seed always yields byte-identical specs, programs and frames
// regardless of how far a timed loop gets.

// Seed-stream offsets: one independent math/rand stream per input kind.
const (
	streamBulk = iota + 1
	streamInteractive
	streamSample
	streamKalman
	streamFx
	streamIntProg
	streamFloatProg
	streamVideo
)

func newStream(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919))
}

// traffic is one fleet traffic mix: what the bulk and the interactive
// stream send.
type traffic struct {
	name        string
	bulkTenants int // bulk tenant IDs 1..bulkTenants
	bulkBatch   int // scenarios per bulk batch
	kinds       []fleet.Kind
	durs        []float64 // Dur menu shared by both streams
	calibrated  float64   // share of bulk specs that calibrate
	rate        float64   // interactive requests per second
	// interactiveCal makes interactive specs calibrate (fleet-mixed
	// follows README's curl request; fleet-tiny keeps them tiny).
	interactiveCal bool
	interactiveDur float64 // 0 draws from durs
	caps           sampleCaps
}

// sampleCaps bounds, per fleet slice, how many bulk results and
// interactive requests the output check re-runs and how many bulk specs
// the layer ladder replays.
type sampleCaps struct{ bulk, inter, replay int }

// interactiveTenant is the interactive stream's own tenant.
const interactiveTenant = 1000

// DRR's 32-scenario quantum is above any tenant's share of a bulk batch,
// so an interactive request waits behind most of the batch ahead of it.
// tinyTraffic sends make fleet-smoke's batches of 500. mixedTraffic's
// batch is one deck of (kind, Dur) pairs, chosen for steady latency: 500
// mixed specs are seconds of work on two workers, and the interactive
// connection would back up behind them. The deep-queue case of mixed
// traffic is therefore not measured. The interactive rates keep the one
// interactive connection idle most of the time: when responses overran
// the send interval (at 10 and 100 requests/s), each slow response
// delayed the ones due behind it, and the latencies swung with the
// host's load far more than its share of stolen time.
var (
	mixedTraffic = traffic{
		name:           "fleet-mixed",
		bulkTenants:    16,
		bulkBatch:      6,
		kinds:          []fleet.Kind{fleet.KindStatic, fleet.KindDynamic, fleet.KindUntuned},
		durs:           []float64{5, 45},
		calibrated:     0.875,
		rate:           5,
		interactiveCal: true,
		interactiveDur: 5,
		caps:           sampleCaps{bulk: 12, inter: 6, replay: 48},
	}
	tinyTraffic = traffic{
		name:        "fleet-tiny",
		bulkTenants: 64,
		bulkBatch:   500,
		kinds:       []fleet.Kind{fleet.KindStatic},
		durs:        []float64{0.01, 0.02, 0.03, 0.04, 0.05},
		calibrated:  0,
		rate:        50,
		caps:        sampleCaps{bulk: 128, inter: 32, replay: 1000},
	}
)

func misDeg(rng *rand.Rand, lim float64) [3]float64 {
	var m [3]float64
	for i := range m {
		m[i] = math.Round((rng.Float64()*2-1)*lim*1000) / 1000
	}
	return m
}

// specGen draws the bulk or the interactive spec stream of a traffic mix.
// Kind and Dur come from a shuffled deck holding every (kind, Dur) pair
// once, and calibration from a deck of calSlots slots, so a bulk batch
// of one deck's size always carries the same work (the interactive
// stream's wait behind it is then a property of the mix, not of the
// seed) and every run serves the same mix. Request sizes come from a
// deck too. Seeds, tenants and misalignments are drawn freely.
type specGen struct {
	tr                 traffic
	rng                *rand.Rand
	mix, cal, sizeDeck []int
}

func newBulkGen(tr traffic, seed int64) *specGen {
	return &specGen{tr: tr, rng: newStream(seed, streamBulk)}
}

func newInteractiveGen(tr traffic, seed int64) *specGen {
	return &specGen{tr: tr, rng: newStream(seed, streamInteractive)}
}

// calSlots is the calibration deck's size: a bulk spec calibrates in
// round(calibrated*calSlots) of every calSlots specs.
const calSlots = 8

// draw deals the next card of a deck of n cards, reshuffling when empty.
func (g *specGen) draw(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = g.rng.Perm(n)
	}
	c := (*deck)[0]
	*deck = (*deck)[1:]
	return c
}

// bulk returns the next bulk spec.
func (g *specGen) bulk() fleet.ScenarioSpec {
	tr := g.tr
	c := g.draw(&g.mix, len(tr.kinds)*len(tr.durs))
	slot := g.draw(&g.cal, calSlots)
	return fleet.ScenarioSpec{
		Kind:        tr.kinds[c%len(tr.kinds)],
		Tenant:      uint32(1 + g.rng.Intn(tr.bulkTenants)),
		Seed:        g.rng.Int63(),
		Dur:         tr.durs[c/len(tr.kinds)],
		MisDeg:      misDeg(g.rng, 5),
		NoCalibrate: float64(slot) >= math.Round(tr.calibrated*calSlots),
	}
}

// request returns the next interactive request: 1–4 static specs.
func (g *specGen) request() []fleet.ScenarioSpec {
	tr := g.tr
	specs := make([]fleet.ScenarioSpec, 1+g.draw(&g.sizeDeck, 4))
	for i := range specs {
		dur := tr.interactiveDur
		if dur == 0 {
			dur = tr.durs[g.rng.Intn(len(tr.durs))]
		}
		specs[i] = fleet.ScenarioSpec{
			Kind:        fleet.KindStatic,
			Tenant:      interactiveTenant,
			Seed:        g.rng.Int63(),
			Dur:         dur,
			MisDeg:      misDeg(g.rng, 5),
			NoCalibrate: !tr.interactiveCal,
		}
	}
	return specs
}

// warmupSpecs covers every profile-cache key and kind of the mix, so
// the warm-up batch builds every motion profile and filter layout the
// timed phase will use.
func warmupSpecs(tr traffic) []fleet.ScenarioSpec {
	var out []fleet.ScenarioSpec
	for _, k := range tr.kinds {
		for _, d := range tr.durs {
			out = append(out, fleet.ScenarioSpec{
				Kind: k, Tenant: 1, Seed: int64(len(out)), Dur: d,
				MisDeg: [3]float64{1, -1, 0.5}, NoCalibrate: true,
			})
		}
	}
	return out
}

// Embedded-path inputs.

// kalmanInput is one SoftFloat Kalman run: filter parameters and 100
// measurements.
type kalmanInput struct {
	q, r, p0, x0 float32
	z            []float32
}

const kalmanUpdates = 100

func genKalmanInputs(seed int64, n int) []kalmanInput {
	rng := newStream(seed, streamKalman)
	out := make([]kalmanInput, n)
	for i := range out {
		truth := float32(1 + 4*rng.Float64())
		noise := 0.1 + 0.4*rng.Float64()
		z := make([]float32, kalmanUpdates)
		for k := range z {
			z[k] = truth + float32(rng.NormFloat64()*noise)
		}
		out[i] = kalmanInput{
			q: float32(1e-6 * (1 + rng.Float64())), r: float32(noise * noise),
			p0: 100, x0: 0, z: z,
		}
	}
	return out
}

const fxEpochs = 40

// genFxInputs draws FxBoresight epochs from the imu package's DMU and
// ACC models on a tilted static platform at a seeded misalignment.
func genFxInputs(seed int64, n int) [][]sabre.FxBoresightInput {
	rng := newStream(seed, streamFx)
	out := make([][]sabre.FxBoresightInput, n)
	for i := range out {
		m := misDeg(rng, 3)
		mis := geom.EulerDeg(m[0], m[1], m[2])
		dmu := imu.NewDMU(imu.DefaultDMUConfig(), rng.Int63())
		acc := imu.NewACC(imu.DefaultACCConfig(mis), rng.Int63())
		pose := traj.StaticPose{
			Attitude: geom.EulerDeg(20*(rng.Float64()*2-1), 20*(rng.Float64()*2-1), 0),
			Dur:      fxEpochs,
		}
		in := make([]sabre.FxBoresightInput, fxEpochs)
		for k := range in {
			st := pose.At(float64(k) * 0.01)
			ds := dmu.Sample(st, [3]float64{})
			as := acc.Sample(st, [3]float64{})
			in[k] = sabre.FxBoresightInput{F: ds.Accel, AX: as.FX, AY: as.FY}
		}
		out[i] = in
	}
	return out
}

// Runtime programs: assembled from templates with seeded constants, so
// no generated kernel has ever seen their code.

const (
	intSamples   = 1000
	intHistory   = 8     // history words ahead of the first sample
	intInBase    = 0x100 // input array (history first)
	intCoefBase  = 0x40  // tap coefficients
	intOutBase   = 0x4000
	floatSamples = 200
	floatInBase  = 0x100
	floatOutBase = 0x8000
)

// intLoopTemplate is a fixed-point FIR + first-order tracking loop with
// saturation and a rotating checksum: integer-only, branchy, and
// dispatch-heavy on the compiled engine.
const intLoopTemplate = `
	lw s0, 0(zero)
	li s1, {{in}}
	li s2, {{out}}
	li t3, {{csum}}
	li fp, 0
int_loop:
	li t0, 0
	li t1, {{coef}}
	li t2, {{taps}}
	mv a2, s1
int_tap:
	lw a1, 0(t1)
	lw a3, 0(a2)
	mul a1, a1, a3
	srai a1, a1, {{sh1}}
	add t0, t0, a1
	addi t1, t1, 4
	addi a2, a2, -4
	addi t2, t2, -1
	bnez t2, int_tap
	sub a1, t0, fp
	srai a1, a1, {{sh2}}
	add fp, fp, a1
	li t4, {{lim}}
	blt fp, t4, int_nohi
	mv fp, t4
int_nohi:
	li t4, -{{lim}}
	bge fp, t4, int_nolo
	mv fp, t4
int_nolo:
	sw fp, 0(s2)
	xor t3, t3, fp
	slli a1, t3, {{rot}}
	srli t3, t3, {{rotc}}
	or t3, t3, a1
	addi s1, s1, 4
	addi s2, s2, 4
	addi s0, s0, -1
	bnez s0, int_loop
	sw t3, 4(zero)
	halt
`

// floatFilterTemplate is a SoftFloat second-order recursive filter with
// a threshold channel; its library calls lower to intrinsics.
const floatFilterTemplate = `
	li sp, 0xFF00
	lw s0, 0(zero)
	li s1, {{in}}
	li s2, {{out}}
	lw t0, 8(zero)
	sw t0, {{y1}}(zero)
	sw t0, {{y2}}(zero)
	beqz s0, ff_done
ff_loop:
	lw a0, 16(zero)
	lw a1, 0(s1)
	call f32_mul
	sw a0, {{acc}}(zero)
	lw a0, 20(zero)
	lw a1, {{y1}}(zero)
	call f32_mul
	lw a1, {{acc}}(zero)
	call f32_add
	sw a0, {{acc}}(zero)
	lw a0, 24(zero)
	lw a1, {{y2}}(zero)
	call f32_mul
	lw a1, {{acc}}(zero)
	call {{op}}
	lw t0, {{y1}}(zero)
	sw t0, {{y2}}(zero)
	sw a0, {{y1}}(zero)
	sw a0, 0(s2)
	li a1, {{thr}}
	call f32_cmp_lt
	sw a0, 4(s2)
	addi s1, s1, 4
	addi s2, s2, 8
	addi s0, s0, -1
	bnez s0, ff_loop
ff_done:
	halt
`

func fillTemplate(tmpl string, vals map[string]string) string {
	for k, v := range vals {
		tmpl = strings.ReplaceAll(tmpl, "{{"+k+"}}", v)
	}
	return tmpl
}

// intProgram is the integer runtime program: its source and the seeded
// input sets (history + samples, and tap coefficients).
type intProgram struct {
	src    string
	taps   int
	coefs  []int32
	inputs [][]int32 // intHistory + intSamples words each
}

func genIntProgram(seed int64, nInputs int) intProgram {
	rng := newStream(seed, streamIntProg)
	// The seed varies constants, not control flow: a seeded trip count
	// would change the instruction mix, and with it the MIPS figure.
	const taps = 6
	rot := 1 + rng.Intn(30)
	src := fillTemplate(intLoopTemplate, map[string]string{
		"in":   fmt.Sprint(intInBase + 4*intHistory),
		"out":  fmt.Sprint(intOutBase),
		"coef": fmt.Sprint(intCoefBase),
		"csum": fmt.Sprint(rng.Intn(1 << 16)),
		"taps": fmt.Sprint(taps),
		"sh1":  fmt.Sprint(8 + rng.Intn(5)),
		"sh2":  fmt.Sprint(1 + rng.Intn(4)),
		"lim":  fmt.Sprint(1<<14 + rng.Intn(1<<16)),
		"rot":  fmt.Sprint(rot),
		"rotc": fmt.Sprint(32 - rot),
	})
	p := intProgram{src: src, taps: taps, coefs: make([]int32, taps)}
	for i := range p.coefs {
		p.coefs[i] = int32(rng.Intn(1<<13) - 1<<12)
	}
	for i := 0; i < nInputs; i++ {
		in := make([]int32, intHistory+intSamples)
		for k := range in {
			in[k] = int32(rng.Intn(1<<16) - 1<<15)
		}
		p.inputs = append(p.inputs, in)
	}
	return p
}

// floatProgram is the SoftFloat runtime program with its seeded
// coefficients and measurement streams.
type floatProgram struct {
	src        string
	b0, a1, a2 float32
	y0         float32
	inputs     [][]float32
}

func genFloatProgram(seed int64, nInputs int) floatProgram {
	rng := newStream(seed, streamFloatProg)
	base := 0x20 + 4*rng.Intn(16)
	op := "f32_add"
	if rng.Intn(2) == 1 {
		op = "f32_sub"
	}
	thr := math.Float32bits(float32(1 + 3*rng.Float64()))
	src := fillTemplate(floatFilterTemplate, map[string]string{
		"in":  fmt.Sprint(floatInBase),
		"out": fmt.Sprint(floatOutBase),
		"y1":  fmt.Sprint(base),
		"y2":  fmt.Sprint(base + 4),
		"acc": fmt.Sprint(base + 8),
		"op":  op,
		"thr": fmt.Sprint(thr),
	})
	// Poles inside the unit circle whatever the sign of the last term.
	p := floatProgram{
		src: src,
		b0:  float32(0.05 + 0.2*rng.Float64()),
		a1:  float32(0.5 + 0.3*rng.Float64()),
		a2:  float32(0.05 + 0.1*rng.Float64()),
		y0:  float32(rng.Float64()),
	}
	for i := 0; i < nInputs; i++ {
		level := 1 + 2*rng.Float64()
		z := make([]float32, floatSamples)
		for k := range z {
			z[k] = float32(level + 0.3*rng.NormFloat64())
		}
		p.inputs = append(p.inputs, z)
	}
	return p
}

// videoInput is the pipeline workload: the road scene as the misaligned
// camera sees it, and the correction that undoes a seeded misalignment.
type videoInput struct {
	mis       geom.Euler
	corr      affine.Params
	distorted *video.Frame
}

const (
	frameW, frameH = 320, 240
	focalPx        = 400
)

func genVideo(seed int64) videoInput {
	rng := newStream(seed, streamVideo)
	mis := geom.EulerDeg(4*(rng.Float64()*2-1), 2*(rng.Float64()*2-1), 2*(rng.Float64()*2-1))
	corr := affine.FromMisalignment(mis, focalPx)
	scene := video.RoadScene{W: frameW, H: frameH}.Render()
	return videoInput{
		mis:       mis,
		corr:      corr,
		distorted: affine.TransformFloat(scene, corr.Invert(), true),
	}
}
