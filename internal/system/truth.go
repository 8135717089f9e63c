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

// Epoch truth tables. Only the seeded sensor noise differs between
// scenarios on one drive, so the truth at t = i·dt, i < n, is computed
// once per truthKey and shared by every run, on every worker. Only
// *traj.Drive profiles are cached: they are the profiles with
// per-epoch trigonometry and vibration, an immutable *Drive is a sound
// map key, and fleet's profile cache hands out one pointer per drive.
// Static profiles (PoseSequence holds a slice and cannot be a key)
// take the uncached path; their truth is piecewise constant and cheap.
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
