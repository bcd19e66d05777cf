package simhw

import (
	"math"
	"math/rand"
	"testing"
)

// noiseEdgeSeeds are the seeds where math/rand's seed reduction branches:
// zero and multiples of 2³¹−1 (seeded as 89482311), negatives (shifted up)
// and the int64 extremes.
var noiseEdgeSeeds = []int64{
	0, 1, -1, 2, lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod, -(lcgMod - 1),
	2 * lcgMod, -3 * lcgMod, lcgMod * (math.MaxInt64 / lcgMod),
	lcgZero, -lcgZero, math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
}

// drawKinds are the rand.Rand draws the testbed and the fault injectors
// make. Each returns the draw's bits so results compare exactly.
var drawKinds = []struct {
	name string
	draw func(*rand.Rand) uint64
}{
	{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
}

// matchStream draws n values of kind k from got and from a fresh math/rand
// generator seeded with seed, and reports the first mismatch.
func matchStream(t *testing.T, got *rand.Rand, seed int64, k, n int) bool {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := drawKinds[k].draw(got), drawKinds[k].draw(want); g != w {
			t.Errorf("seed %d: %s draw %d = %#x, math/rand gives %#x", seed, drawKinds[k].name, i, g, w)
			return false
		}
	}
	return true
}

func TestNoiseSourceMatchesMathRand(t *testing.T) {
	// Draw counts on both sides of the tap (273 words) and the register
	// length (607 words), and far past it. A NormFloat64 may read more than
	// one word, so its counts cross the boundaries earlier.
	counts := []int{1, 2, 272, 273, 274, 334, 335, 606, 607, 608, 1214, 3000}
	seeds := append([]int64(nil), noiseEdgeSeeds...)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		for k := range drawKinds {
			for _, n := range counts {
				if !matchStream(t, rand.New(NewNoiseSource(seed)), seed, k, n) {
					t.Fatalf("fresh source, %d draws", n)
				}
			}
		}
	}

	// One source re-seeded many times, left at every stage of its walk:
	// a re-seed must forget every word the previous stream wrote.
	src := NewNoiseSource(0)
	got := rand.New(src)
	for i := 0; i < 2000; i++ {
		seed := int64(r.Uint64())
		if i < len(noiseEdgeSeeds) {
			seed = noiseEdgeSeeds[i]
		}
		src.Seed(seed)
		if !matchStream(t, got, seed, i%len(drawKinds), counts[i%len(counts)]) {
			t.Fatalf("re-seed %d", i)
		}
	}

	// Interleaved kinds, as the fault injectors draw them.
	for _, seed := range seeds {
		src.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			k := i * 7 % len(drawKinds)
			if g, w := drawKinds[k].draw(got), drawKinds[k].draw(want); g != w {
				t.Fatalf("seed %d: interleaved draw %d (%s) = %#x, math/rand gives %#x", seed, i, drawKinds[k].name, g, w)
			}
		}
	}
}

// FuzzNoiseStream checks a re-seeded source against math/rand for any seed
// and up to 65,535 Uint64 draws, then a few of each other kind.
func FuzzNoiseStream(f *testing.F) {
	for _, seed := range noiseEdgeSeeds {
		f.Add(seed, uint16(700))
	}
	f.Add(int64(0x5eed), uint16(0))
	f.Add(int64(-12345), uint16(273))
	f.Add(int64(99), uint16(607))
	src := NewNoiseSource(0)
	got := rand.New(src)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		// Leave the shared source mid-walk first: the fuzzed seed must
		// start clean whatever the previous input wrote.
		src.Seed(^seed)
		for i := 0; i < int(draws%700); i++ {
			src.Uint64()
		}
		src.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < int(draws); i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
		for i := 0; i < 64; i++ {
			k := i % len(drawKinds)
			if g, w := drawKinds[k].draw(got), drawKinds[k].draw(want); g != w {
				t.Fatalf("seed %d: %s after %d draws = %#x, math/rand gives %#x", seed, drawKinds[k].name, draws, g, w)
			}
		}
	})
}
