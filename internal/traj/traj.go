// Package traj generates ground-truth vehicle motion for the boresight
// experiments: static tilted-platform poses for the paper's static tests
// (Section 11.1) and driving profiles — accelerate, brake, turn — for the
// dynamic tests (Section 11.2), plus the engine/road vibration
// disturbance that forced the paper to raise the filter's measurement
// noise when moving.
//
// Frames: the navigation frame is local-level NED (x north, y east,
// z down); the body frame is x forward, y right, z down. Gravity is +g
// along NED z. An ideal accelerometer triad strapped to the body senses
// the specific force f_b = C_n2b · (a_n − g_n).
package traj

import (
	"fmt"
	"math"
	"unsafe"

	"boresight/internal/geom"
)

// Gravity is the local gravitational acceleration magnitude (m/s²).
const Gravity = 9.80665

// State is the complete vehicle truth at one instant.
type State struct {
	T      float64   // time since profile start (s)
	Pos    geom.Vec3 // NED position (m)
	Vel    geom.Vec3 // NED velocity (m/s)
	AccelN geom.Vec3 // NED acceleration (m/s²), gravity excluded
	Att    geom.Quat // body-to-NED attitude
	Rate   geom.Vec3 // body angular rate (rad/s)
}

// SpecificForce returns the specific force in body axes: what an ideal
// accelerometer triad fixed to the vehicle senses,
// f_b = C_n2b · (a_n − g_n) with g_n = (0, 0, +Gravity).
func (s State) SpecificForce() geom.Vec3 {
	gn := geom.Vec3{0, 0, Gravity}
	fn := s.AccelN.Sub(gn)
	return s.Att.Conj().Apply(fn)
}

// Profile is a deterministic source of vehicle truth over a time span.
type Profile interface {
	// At returns the truth state at time t in [0, Duration].
	At(t float64) State
	// Duration returns the profile length in seconds.
	Duration() float64
	// Name identifies the profile in reports.
	Name() string
}

// StaticPose is a motionless platform held at a fixed attitude — the
// paper's level-test-platform setup. Tilting the platform puts gravity
// components on the horizontal accelerometer axes, which is what makes
// roll and yaw observable in the static tests.
type StaticPose struct {
	// Attitude of the platform (body-to-NED).
	Attitude geom.Euler
	// Dur is the test duration in seconds.
	Dur float64
	// Label names the pose in reports; empty defaults to "static".
	Label string
}

// At returns the constant pose state.
func (p StaticPose) At(t float64) State {
	return State{T: t, Att: p.Attitude.Quat()}
}

// Duration returns the configured test length.
func (p StaticPose) Duration() float64 { return p.Dur }

// Name returns the pose label.
func (p StaticPose) Name() string {
	if p.Label == "" {
		return "static"
	}
	return p.Label
}

// PoseSequence is a series of static platform orientations, each held
// for Dwell seconds — the paper's static roll/yaw test procedure, where
// the platform is re-oriented so gravity produces components along the
// accelerometer axes. The sequence repeats if the requested time runs
// past the last pose.
type PoseSequence struct {
	Poses []geom.Euler
	Dwell float64
	Label string
}

// At returns the pose active at time t.
func (p PoseSequence) At(t float64) State {
	i := p.PoseIndex(t)
	if i < 0 {
		return State{T: t, Att: geom.IdentityQuat()}
	}
	return State{T: t, Att: p.Poses[i].Quat()}
}

// PoseIndex returns the index in Poses of the pose active at time t,
// or -1 when the sequence has no poses or no dwell, in which case At
// holds the identity attitude.
func (p PoseSequence) PoseIndex(t float64) int {
	if len(p.Poses) == 0 || p.Dwell <= 0 {
		return -1
	}
	i := int(t / p.Dwell)
	if i >= len(p.Poses) {
		i %= len(p.Poses) // skipped in the first pass, sparing the division
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Duration returns one full pass through the poses.
func (p PoseSequence) Duration() float64 { return float64(len(p.Poses)) * p.Dwell }

// Name returns the sequence label.
func (p PoseSequence) Name() string {
	if p.Label == "" {
		return "pose-sequence"
	}
	return p.Label
}

// Segment is one piece of a driving profile: constant longitudinal
// acceleration and constant turn rate for Dur seconds.
type Segment struct {
	Dur       float64 // length (s)
	LongAccel float64 // longitudinal acceleration (m/s², + forward)
	TurnRate  float64 // yaw rate (rad/s, + right/clockwise from above)
}

// Drive is a driving profile assembled from segments. Heading and speed
// integrate analytically across segments; attitude includes small
// suspension effects (dive under braking, body roll in turns) so the
// IMU's accelerometers see realistic cross-axis coupling.
//
// A *Drive is immutable once NewDrive returns: nothing that At reads
// can change, so callers may key caches of its truth on the pointer.
type Drive struct {
	Label string
	// divePerAccel is pitch change per unit longitudinal acceleration
	// (rad per m/s²); positive acceleration pitches the nose up.
	divePerAccel float64
	// rollPerLatAccel is body roll per unit lateral (centripetal)
	// acceleration (rad per m/s²).
	rollPerLatAccel float64

	segs []Segment
	// Cumulative state at segment boundaries.
	t0, v0, h0 []float64 // start time, speed, heading per segment
	total      float64
	// Position sampled on a fixed grid at construction; At interpolates.
	posGrid []geom.Vec3
	gridDT  float64
}

// NewDrive builds a driving profile starting at rest, heading north.
// Speed is clamped at zero (the vehicle cannot reverse by braking).
// The drive keeps its own copy of segs.
func NewDrive(label string, segs []Segment) *Drive {
	if len(segs) == 0 {
		panic("traj: NewDrive with no segments")
	}
	d := &Drive{
		Label:           label,
		divePerAccel:    0.006, // ~0.34° of pitch per m/s², typical sedan
		rollPerLatAccel: 0.010, // ~0.57° of roll per m/s² lateral
		segs:            append([]Segment(nil), segs...),
	}
	d.t0 = make([]float64, len(segs)+1)
	d.v0 = make([]float64, len(segs)+1)
	d.h0 = make([]float64, len(segs)+1)
	for i, s := range segs {
		if s.Dur <= 0 {
			panic(fmt.Sprintf("traj: segment %d has non-positive duration", i))
		}
		d.t0[i+1] = d.t0[i] + s.Dur
		d.v0[i+1] = math.Max(0, d.v0[i]+float64(s.LongAccel*s.Dur))
		d.h0[i+1] = d.h0[i] + float64(s.TurnRate*s.Dur)
	}
	d.total = d.t0[len(segs)]
	// Integrate position once over the whole profile (closed forms do
	// not exist when both acceleration and turn rate are nonzero) and
	// keep a grid for interpolation in At.
	d.gridDT = 1e-2
	n := int(math.Ceil(d.total/d.gridDT)) + 1
	d.posGrid = make([]geom.Vec3, n)
	p := geom.Vec3{}
	const dt = 1e-3
	sub := int(math.Round(d.gridDT / dt))
	for g := 1; g < n; g++ {
		tBase := float64(float64(g-1) * d.gridDT)
		for k := 0; k < sub; k++ {
			tm := tBase + float64((float64(k)+0.5)*dt)
			if tm > d.total {
				break
			}
			v, h := d.speedHeadingAt(tm)
			p = p.Add(geom.Vec3{v * math.Cos(h), v * math.Sin(h), 0}.Scale(dt))
		}
		d.posGrid[g] = p
	}
	return d
}

// HeapBytes returns the heap memory the drive holds, in bytes: the
// Drive itself, its segments and segment-boundary states, and its
// position grid, 24 B per 10 ms of drive. A cache keyed on a *Drive
// keeps all of it alive.
func (d *Drive) HeapBytes() int {
	return int(unsafe.Sizeof(*d)) +
		cap(d.segs)*int(unsafe.Sizeof(Segment{})) +
		(cap(d.t0)+cap(d.v0)+cap(d.h0))*int(unsafe.Sizeof(float64(0))) +
		cap(d.posGrid)*int(unsafe.Sizeof(geom.Vec3{}))
}

// speedHeadingAt returns the analytic speed and heading at time t.
func (d *Drive) speedHeadingAt(t float64) (v, h float64) {
	i := 0
	for i < len(d.segs)-1 && t >= d.t0[i+1] {
		i++
	}
	s := d.segs[i]
	dt := t - d.t0[i]
	v = math.Max(0, d.v0[i]+float64(s.LongAccel*dt))
	h = d.h0[i] + float64(s.TurnRate*dt)
	return v, h
}

// Duration returns the total profile length.
func (d *Drive) Duration() float64 { return d.total }

// Name returns the profile label.
func (d *Drive) Name() string { return d.Label }

// At returns the truth state at time t (clamped to the profile span).
func (d *Drive) At(t float64) State {
	if t < 0 {
		t = 0
	}
	if t > d.total {
		t = d.total
	}
	// Locate the segment.
	i := 0
	for i < len(d.segs)-1 && t >= d.t0[i+1] {
		i++
	}
	s := d.segs[i]
	dt := t - d.t0[i]
	v := d.v0[i] + float64(s.LongAccel*dt)
	a := s.LongAccel
	if v < 0 { // came to rest during braking
		v, a = 0, 0
	}
	h := d.h0[i] + float64(s.TurnRate*dt)
	// Position by linear interpolation on the precomputed grid.
	g := int(t / d.gridDT)
	if g >= len(d.posGrid)-1 {
		g = len(d.posGrid) - 2
	}
	frac := t/d.gridDT - float64(g)
	p := d.posGrid[g].Add(d.posGrid[g+1].Sub(d.posGrid[g]).Scale(frac))

	sinH, cosH := math.Sincos(h)
	vel := geom.Vec3{v * cosH, v * sinH, 0}
	// NED acceleration: longitudinal along heading + centripetal.
	latA := v * s.TurnRate // centripetal magnitude toward turn centre
	accN := geom.Vec3{
		float64(a*cosH) - float64(latA*sinH),
		float64(a*sinH) + float64(latA*cosH),
		0,
	}
	// Attitude: heading plus suspension dive/roll.
	att := geom.Euler{
		Roll:  d.rollPerLatAccel * latA,
		Pitch: d.divePerAccel * a,
		Yaw:   h,
	}
	rate := geom.Vec3{0, 0, s.TurnRate}
	return State{T: t, Pos: p, Vel: vel, AccelN: accN, Att: att.Quat(), Rate: rate}
}

// cityPattern is one pass of CityDrive's route.
var cityPattern = []Segment{
	{Dur: 3, LongAccel: 0},                   // idle
	{Dur: 6, LongAccel: 2.2},                 // accelerate to ~13 m/s
	{Dur: 8, LongAccel: 0},                   // cruise
	{Dur: 5, LongAccel: 0, TurnRate: 0.22},   // right turn
	{Dur: 6, LongAccel: 0},                   // cruise
	{Dur: 4, LongAccel: -2.8},                // brake
	{Dur: 2, LongAccel: 0},                   // pause
	{Dur: 5, LongAccel: 2.5},                 // accelerate
	{Dur: 5, LongAccel: 0, TurnRate: -0.18},  // left turn
	{Dur: 6, LongAccel: 0.5},                 // gentle accel
	{Dur: 4, LongAccel: -2.0},                // brake
	{Dur: 3, LongAccel: 1.5, TurnRate: 0.10}, // accelerating curve
}

// CityDrive returns a representative mixed urban driving profile used by
// the dynamic tests: pull away, cruise, corner, brake, repeat. The
// pattern repeats to cover dur, so the drive lasts CityDriveDuration(dur)
// seconds and depends on dur only through that length.
func CityDrive(label string, dur float64) *Drive {
	reps, _ := cityReps(dur)
	segs := make([]Segment, 0, reps*len(cityPattern))
	for r := 0; r < reps; r++ {
		segs = append(segs, cityPattern...)
	}
	return NewDrive(label, segs)
}

// CityDriveDuration returns the length of the drive CityDrive builds
// for dur: dur rounded up to whole passes of the route, at least one.
func CityDriveDuration(dur float64) float64 {
	reps, pass := cityReps(dur)
	return float64(reps) * pass
}

// cityReps returns how many passes of the route CityDrive builds for
// dur, and the length of one pass.
func cityReps(dur float64) (reps int, pass float64) {
	for _, s := range cityPattern {
		pass += s.Dur
	}
	reps = int(math.Ceil(dur / pass))
	if reps < 1 {
		reps = 1
	}
	return reps, pass
}
