package rng

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testSeeds returns the differential suite's seeds: the normalisation
// edge cases (0 and every value that folds to it, the modulus and its
// neighbours, the int64 extremes, the seed math/rand substitutes for 0)
// plus 500 drawn over the whole int64 range and 100 small ones.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1, 1 << 31,
		2 * int32max, -2 * int32max, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	pick := rand.New(rand.NewSource(20261017))
	for i := 0; i < 500; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for i := 0; i < 100; i++ {
		seeds = append(seeds, int64(pick.Intn(1<<20))-1<<19)
	}
	return seeds
}

// stream names one way of consuming a generator; draw returns the next
// value as comparable bits.
type stream struct {
	name string
	draw func(r *rand.Rand) uint64
}

var streams = []stream{
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	{"Intn", func(r *rand.Rand) uint64 { return uint64(r.Intn(1000003)) }},
}

// streamLen covers more than three passes over the 607-entry table, so
// every chunk is seeded and both indices wrap several times.
const streamLen = 2000

// compare draws n values from both generators and reports the first
// difference.
func compare(t *testing.T, st stream, want, got *rand.Rand, n int, what string) {
	t.Helper()
	for k := 0; k < n; k++ {
		if w, g := st.draw(want), st.draw(got); w != g {
			t.Fatalf("%s %s: draw %d = %#x, math/rand gives %#x", what, st.name, k, g, w)
		}
	}
}

// TestMatchesMathRand is the bit-identity contract: for every seed and
// every way the sensor models consume noise, a rand.Rand over Source
// yields exactly the values one over math/rand's source does.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		for _, st := range streams {
			want := rand.New(rand.NewSource(seed))
			got := rand.New(NewSource(seed))
			compare(t, st, want, got, streamLen, fmt.Sprintf("seed %d", seed))
		}
	}
}

// TestReseedMidTable reseeds both generators after every draw count at
// which the lazy table changes state — nothing drawn, one draw, each
// index reaching its second chunk, the tap entering the low region
// (273), the feed wrapping (334), the tap wrapping (607) — and checks
// the new seed's stream is exact: no chunk seeded for the old seed may
// survive into the new one.
func TestReseedMidTable(t *testing.T) {
	prefixes := []int{0, 1, chunk - 1, chunk, chunk + 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1300}
	seeds := testSeeds()
	for i, prefix := range prefixes {
		for j := 0; j < 40; j++ {
			first, second := seeds[(i*40+j)%len(seeds)], seeds[(i*40+j+7)%len(seeds)]
			want := rand.New(rand.NewSource(first))
			got := rand.New(NewSource(first))
			compare(t, streams[0], want, got, prefix, "prefix")
			want.Seed(second)
			got.Seed(second)
			for _, st := range streams {
				compare(t, st, want, got, streamLen/len(streams),
					fmt.Sprintf("reseed %d after %d draws", second, prefix))
			}
		}
	}
}

// generators pairs this package's source with math/rand's for the
// side-by-side benchmarks.
var generators = []struct {
	name string
	src  rand.Source
}{
	{"rng", NewSource(1)},
	{"math-rand", rand.NewSource(1)},
}

// BenchmarkSeedDraw30 is one short scenario's use of a sensor's noise
// generator: a reseed, then 30 normal draws.
func BenchmarkSeedDraw30(b *testing.B) {
	for _, g := range generators {
		b.Run(g.name, func(b *testing.B) {
			r := rand.New(g.src)
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for k := 0; k < 30; k++ {
					sink += r.NormFloat64()
				}
			}
			_ = sink
		})
	}
}

// BenchmarkNormFloat64 is the steady-state draw, from a fully seeded
// table: the cost a long scenario pays per noise value.
func BenchmarkNormFloat64(b *testing.B) {
	for _, g := range generators {
		b.Run(g.name, func(b *testing.B) {
			r := rand.New(g.src)
			r.Seed(7)
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += r.NormFloat64()
			}
			_ = sink
		})
	}
}
