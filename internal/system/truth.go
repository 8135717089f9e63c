package system

import (
	"sync"
	"unsafe"

	"boresight/internal/geom"
	"boresight/internal/traj"
)

// epochTruth is the vehicle truth both instruments sample at one epoch.
type epochTruth struct {
	f     geom.Vec3 // body specific force, vibration included (m/s²)
	w     geom.Vec3 // body angular rate (rad/s)
	speed float64   // |velocity| (m/s), which vibration and odometry read
	t     float64   // the profile's time stamp for the epoch (s)
}

// truthAt evaluates the truth at time t: the profile state, the
// vibration at that speed when vibrate is set, and their sum as the
// body specific force. It is the one definition of epoch truth; the
// shared tables hold its values.
func truthAt(p traj.Profile, vibrate bool, vibration traj.Vibration, t float64) epochTruth {
	st := p.At(t)
	speed := st.Vel.Norm()
	var vib [3]float64
	if vibrate {
		vib = vibration.At(t, speed)
	}
	return epochTruth{f: st.SpecificForce().Add(geom.Vec3(vib)), w: st.Rate, speed: speed, t: st.T}
}

// poseCacheLen is how many static poses a Runner keeps the gravity
// force of; StaticTestPoses, the only sequence fleet serves, has six.
const poseCacheLen = 8

// poseCache maps a static pose to the body specific force gravity
// produces at it, State{Att: pose.Quat()}.SpecificForce(), which
// truthAt re-derives (six trigonometric calls and a rotation) on every
// epoch of a PoseSequence although it changes once per dwell. Pose i of
// a sequence has slot i mod poseCacheLen, which holds the last pose
// seen there, keyed by its exact bits (geom.Euler.Bits), never ==.
// Each Runner owns one, so it needs no lock.
type poseCache struct {
	keys   [poseCacheLen][3]uint64
	forces [poseCacheLen]geom.Vec3
	used   [poseCacheLen]bool
}

// force returns the body specific force at pose e, pose i of its
// sequence.
func (c *poseCache) force(i int, e geom.Euler) geom.Vec3 {
	s := uint(i) % poseCacheLen
	if k := e.Bits(); !c.used[s] || c.keys[s] != k {
		c.keys[s], c.used[s] = k, true
		c.forces[s] = traj.State{Att: e.Quat()}.SpecificForce()
	}
	return c.forces[s]
}

// truth returns truthAt(seq, vibrate, vibration, t) bit for bit: the
// pose's force from the cache plus the vibration, which is evaluated
// per epoch at speed 0 as truthAt evaluates it. A sequence without
// poses or dwell takes truthAt itself.
func (c *poseCache) truth(seq traj.PoseSequence, vibrate bool, vibration traj.Vibration, t float64) epochTruth {
	i := seq.PoseIndex(t)
	if i < 0 {
		return truthAt(seq, vibrate, vibration, t)
	}
	var vib [3]float64
	if vibrate {
		vib = vibration.At(t, 0)
	}
	return epochTruth{f: c.force(i, seq.Poses[i]).Add(geom.Vec3(vib)), t: t}
}

// Epoch truth tables. Only the seeded sensor noise differs between
// scenarios on one drive, so the truth at t = i·dt, i < n, is computed
// once per truthKey and shared by every run, on every worker. Only
// *traj.Drive profiles are cached: they are the profiles with
// per-epoch trigonometry and vibration, an immutable *Drive is a sound
// map key, and fleet's profile cache hands out one pointer per drive.
// A PoseSequence (it holds a slice and cannot be a key) reads its
// forces from the Runner's poseCache instead.
type truthKey struct {
	drive     *traj.Drive
	dt        float64
	n         int
	vibrate   bool
	vibration traj.Vibration
}

// truthEpochBytes is the memory one cached epoch takes.
const truthEpochBytes = int(unsafe.Sizeof(epochTruth{}))

// maxTruthBytes bounds the memory the cache keeps alive, 4 MiB. Each
// table is charged its epochs, 64 B each, plus the HeapBytes of the
// drive its key keeps alive, so a short run on a long drive pays for
// the drive it pins: a 57-s drive at 100 Hz is 365 KB of table and
// 137 KB of drive. A drive under several keys is charged by each.
//
// A table charged more than a quarter of the bound takes the uncached
// path, so at least four tables always fit and no one long run evicts
// the rest. fleet's 57-s and 114-s drives are cached at 100 Hz; its
// longer ones are not. An insert that would pass the bound first drops
// every cached table, so drives seen once (the experiment harness
// builds a fresh CityDrive per config) cannot fill the cache for good.
// A dropped table stays valid for the runs still reading it. A mix of
// drives whose tables together pass the bound rebuilds tables as it
// cycles, each rebuild costing one table allocation on top of the
// truth the uncached path evaluates.
const maxTruthBytes = 4 << 20

var (
	truthMu     sync.RWMutex
	truthTables = make(map[truthKey][]epochTruth)
	truthBytes  int // bytes charged to the tables in truthTables
)

// truthTable returns the shared truth of a run of n epochs at spacing
// dt, or nil when the run takes the uncached path. Tables are built
// outside the lock and published only once complete, so a build that
// panics leaves nothing keyed; of two concurrent builds of one key,
// both runs read the table published first. A published table is never
// written again.
func truthTable(cfg *Config, dt float64, n int) []epochTruth {
	d, ok := cfg.Profile.(*traj.Drive)
	if !ok || n <= 0 {
		return nil
	}
	charge := n*truthEpochBytes + d.HeapBytes()
	if charge > maxTruthBytes/4 {
		return nil
	}
	k := truthKey{drive: d, dt: dt, n: n, vibrate: cfg.Vibrate, vibration: cfg.Vibration}
	truthMu.RLock()
	tab := truthTables[k]
	truthMu.RUnlock()
	if tab != nil {
		return tab
	}
	tab = make([]epochTruth, n)
	for i := range tab {
		tab[i] = truthAt(d, cfg.Vibrate, cfg.Vibration, float64(i)*dt)
	}
	truthMu.Lock()
	if q := truthTables[k]; q != nil {
		tab = q // lost the build race; serve the published one
	} else {
		if truthBytes+charge > maxTruthBytes {
			clear(truthTables)
			truthBytes = 0
		}
		truthTables[k] = tab
		truthBytes += charge
	}
	truthMu.Unlock()
	return tab
}
