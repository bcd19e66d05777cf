package a

// Direct sources in the vetted package itself: map ranges, time.Now, and
// global math/rand calls are reported at their own position; slice ranges,
// seeded generators, the key-collection idiom and annotated
// order-independent iterations pass.

import (
	"math/rand"
	"sort"
	"time"
)

func badMapRange(loads map[string]float64) float64 {
	var sum float64
	for _, v := range loads { // want `^nondeterministic iteration over map loads; iterate sorted keys instead$`
		sum += v
	}
	return sum
}

func badClockAndRand() (int64, int) {
	t := time.Now().UnixNano()         // want `^time\.Now breaks run-to-run determinism; inject the clock$`
	n := rand.Intn(10)                 // want `global math/rand source is process-seeded`
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand`
	return t, n
}

func goodSortedRange(loads map[string]float64) float64 {
	// Key collection followed by sorting is the canonical fix and passes.
	keys := make([]string, 0, len(loads))
	for k := range loads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += loads[k]
	}
	return sum
}

func goodAnnotatedRange(present map[int]bool) int {
	n := 0
	//detflow:ignore membership count is order-independent over bools
	for range present {
		n++
	}
	return n
}

// nestedRange: a trailing directive covers its own line only, so the inner
// range on the next line is still reported.
func nestedRange(groups map[string]map[string]bool) int {
	n := 0
	for _, g := range groups { //detflow:ignore counting is order-independent
		for name := range g { // want `nondeterministic iteration over map g`
			n += len(name)
		}
	}
	return n
}

func goodSeededRand(seed int64, xs []float64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for _, x := range xs {
		sum += x * rng.Float64()
	}
	return sum
}
