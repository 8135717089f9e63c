// Package rng provides the sensor models' noise source: a rand.Source64
// that produces exactly math/rand's value stream for every seed, but
// seeds in constant time.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word table. Its Seed fills that table with 1,841 sequential
// Park–Miller steps (x ← 48271·x mod 2³¹−1) XORed with a fixed "cooked"
// table, which costs ~13 µs — far more than a short scenario spends
// drawing its few dozen noise values. Source.Seed only records the
// normalised seed. Table entries are computed when a draw first reaches
// them, 32 at a time, each by Park–Miller jump-ahead: entry i needs
// steps 21+3i .. 23+3i, and x_k = 48271^k·x₀ mod 2³¹−1 reaches the
// first of them in one multiplication from a table of powers built at
// init. The check for the next chunk rides on the comparisons the draw
// already makes to wrap its two table indices, so a draw from a fully
// seeded table costs what math/rand's does.
//
// The cooked table is not copied from math/rand's source: init recovers
// it from math/rand's own first 607 outputs for a fixed seed, so
// math/rand stays the single definition of the stream. The package tests
// compare the two generators draw for draw across hundreds of seeds and
// every reseed boundary.
package rng

import "math/rand"

const (
	tableLen = 607 // lag table length (math/rand's rngLen)
	tapLag   = 273 // tap distance (math/rand's rngTap)
	feedTop  = tableLen - tapLag
	int32max = 1<<31 - 1 // the Park–Miller modulus, 2³¹−1
	pmMul    = 48271     // the Park–Miller multiplier
	// warmup is the number of Park–Miller steps math/rand discards
	// before the first table entry; entry i then takes steps
	// warmup+3i+1 .. warmup+3i+3.
	warmup = 20
	chunk  = 32 // entries seeded per slow-path visit
)

var (
	// cooked is math/rand's rngCooked seeding table.
	cooked [tableLen]int64
	// jump[i] = 48271^(warmup+3i+1) mod 2³¹−1: the multiplier taking
	// the normalised seed to the first Park–Miller value of entry i.
	jump [tableLen]uint64
)

func init() {
	p := uint64(1)
	for i := 0; i < warmup; i++ {
		p = pmStep(p)
	}
	for i := range jump {
		p = pmStep(p)
		jump[i] = p
		p = pmStep(pmStep(p))
	}

	// Read math/rand's initial table back from its first 607 outputs.
	// Draw k (1-based) adds the entries at feed = 334−k (mod 607) and
	// tap = 607−k and stores the sum at feed. Until draw 274 the tap
	// reads untouched entries; after it, the tap reads sums that draw
	// k−273 stored, so an initial entry is an output difference.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [tableLen + 1]int64
	for k := 1; k <= tableLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var start [tableLen]int64
	for k := tapLag + 1; k <= tableLen; k++ {
		start[(feedTop-k+tableLen)%tableLen] = out[k] - out[k-tapLag]
	}
	for k := 1; k <= tapLag; k++ {
		start[feedTop-k] = out[k] - start[tableLen-k]
	}
	for i := range cooked {
		cooked[i] = start[i] ^ parkMiller(i, seed)
	}
}

// pmStep is one Park–Miller step, x ← 48271·x mod 2³¹−1, for x in
// [1, 2³¹−2]: the value math/rand's seedrand computes by Schrage's
// method.
func pmStep(x uint64) uint64 { return mulMod(x, pmMul) }

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Source is math/rand's additive lagged-Fibonacci source with lazy
// seeding. The zero value is not seeded; use NewSource or call Seed
// first. Like math/rand's sources, a Source is not safe for concurrent
// use.
type Source struct {
	// tap and feed index vec exactly as in math/rand.
	tap, feed int
	// A draw whose tap or feed index falls below tapLo or feedLo takes
	// the slow path, which wraps the index and seeds the chunk it has
	// reached. Once the table is fully seeded both are 0, which makes
	// the test the wrap test math/rand itself performs.
	tapLo, feedLo int
	// The table is seeded downwards in two regions: vec[feedTop:],
	// which the tap index enters first, and vec[:feedTop], which the
	// feed index enters first. vec[hiLo:] and vec[loLo:feedTop] hold
	// their seeded values; nothing below either frontier does.
	hiLo, loLo int
	x0         uint64 // normalised Park–Miller seed
	vec        [tableLen]int64
}

// NewSource returns a Source seeded with seed: the generator
// rand.NewSource(seed) returns, value for value.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed re-initialises the source in constant time to the state
// math/rand's Seed(seed) produces; the table is filled in as draws reach
// it.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, feedTop
	s.hiLo, s.loLo = tableLen, feedTop
	s.tapLo, s.feedLo = s.tap, s.feed
}

// Int63 returns a non-negative pseudo-random 63-bit integer. It repeats
// Uint64's body rather than calling it: the slow-path calls put Uint64
// over the inlining budget, and rand.Rand draws everything but Uint64
// through Int63, so the extra call would tax every noise value.
func (s *Source) Int63() int64 {
	s.tap--
	if s.tap < s.tapLo {
		s.tapLo = s.reach(&s.tap)
	}
	s.feed--
	if s.feed < s.feedLo {
		s.feedLo = s.reach(&s.feed)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & (1<<63 - 1)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < s.tapLo {
		s.tapLo = s.reach(&s.tap)
	}
	s.feed--
	if s.feed < s.feedLo {
		s.feedLo = s.reach(&s.feed)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// reach is the draw's slow path for one table index: it wraps *i at
// the bottom of the table, seeds entries until vec[*i] holds its value,
// and returns the lowest index j such that vec[j..*i] are all seeded —
// the next point at which the index needs the slow path.
func (s *Source) reach(i *int) int {
	if *i < 0 {
		*i += tableLen
	}
	if *i >= feedTop {
		for s.hiLo > *i {
			s.hiLo = s.fill(s.hiLo, feedTop)
		}
		if s.hiLo > feedTop {
			return s.hiLo
		}
		// The high region is complete, so the seeded run continues
		// into the low one (loLo == feedTop when that is still empty).
		return s.loLo
	}
	for s.loLo > *i {
		s.loLo = s.fill(s.loLo, 0)
	}
	return s.loLo
}

// fill seeds the chunk of entries below top, down to no lower than
// floor, and returns the chunk's lowest index.
func (s *Source) fill(top, floor int) int {
	lo := max(top-chunk, floor)
	for i := lo; i < top; i++ {
		s.vec[i] = parkMiller(i, s.x0) ^ cooked[i]
	}
	return lo
}

// parkMiller returns table entry i's Park–Miller part for the normalised
// seed x0: the seeded entry without the cooked table.
func parkMiller(i int, x0 uint64) int64 {
	x := mulMod(jump[i], x0)
	u := int64(x) << 40
	x = pmStep(x)
	u ^= int64(x) << 20
	return u ^ int64(pmStep(x))
}
