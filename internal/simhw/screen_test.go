package simhw

import (
	"math"
	"testing"
)

// The saturation screen's threshold runs, as FuzzTestbedClasses inputs: on
// X5-2, golden-mixed (seed 0) on an SMT pair and three lone cores of
// socket 0 at the nominal clock, with load balance 0.15, which rounds the
// pair's overall slowdown below its contention slowdown, and a queue
// factor of 1e40, under which a utilisation a few ulps past satStart
// already slows a thread. The demand scale sets the first-iteration
// utilisation u0 of the pair's instruction issue, resource 0.
const (
	kneePreset      = uint8(4)
	kneePower       = uint8(PowerNominal)
	kneeLoadBalance = 0.15
	kneeQueueFactor = 1e40
	kneeResource    = 0
)

var kneeOrder = []byte{0, 1, 2, 4, 6}

var kneeSeeds = []struct {
	scale float64
	u0    float64 // 0: below coldUtil, not at it
	what  string
}{
	{1, 0, "far below the threshold"},
	{1.6882073583117922, coldUtil, "at the threshold: cold"},
	{1.6882073583117925, math.Nextafter(coldUtil, 1), "one ulp above the threshold: hot"},
	{1.6882073599999996, satStart, "at satStart, and past it at a later iteration: hot only by the screen's margin"},
}

// TestScreenThresholdSeeds checks that each threshold seed is what its
// name says, on the per-agent reference: its first-iteration utilisation,
// the load balance rounding some overall slowdown below the contention
// slowdown, and, for the seed at satStart, a later utilisation past it.
// The class solver must screen out exactly the seeds at or below the
// threshold and still match the reference.
func TestScreenThresholdSeeds(t *testing.T) {
	beds := fuzzBeds(t)
	for _, k := range kneeSeeds {
		tb, cfg, ok := testbedFuzzInput(beds, kneePreset, kneeOrder, nil, 0, 0, kneePower, 0, k.scale, kneeLoadBalance, kneeQueueFactor)
		if !ok || tb.truth.Topo.Name != X52Truth().Topo.Name {
			t.Fatalf("%s: the seed does not decode to an X5-2 run", k.what)
		}
		var u0, uMax float64
		var rounded bool
		_, err := refRunWatched(tb, cfg, func(iter int, agents []class, table *resTable) {
			u := table.total[kneeResource] / table.capacity[kneeResource]
			if iter == 0 {
				u0 = u
			}
			uMax = max(uMax, u)
			for _, a := range agents {
				rounded = rounded || a.workload && a.active && a.sTot < a.sRes
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", k.what, err)
		}
		if k.u0 == 0 && !(u0 < coldUtil) || k.u0 != 0 && u0 != k.u0 {
			t.Errorf("%s: first-iteration utilisation %v, want %v (coldUtil %v)", k.what, u0, k.u0, coldUtil)
		}
		if !rounded {
			t.Errorf("%s: the load balance never rounds an overall slowdown below the contention slowdown", k.what)
		}
		if k.u0 == satStart && !(uMax > satStart) {
			t.Errorf("%s: utilisation peaks at %v, want past satStart", k.what, uMax)
		}

		s := newRunScratch(tb.truth.Topo)
		if _, err := tb.run(s, &cfg); err != nil {
			t.Fatalf("%s: %v", k.what, err)
		}
		hot := false
		for _, r := range s.demands.res {
			hot = hot || r == kneeResource
		}
		if want := u0 > coldUtil; hot != want {
			t.Errorf("%s: resource %d screened hot %v, want %v", k.what, kneeResource, hot, want)
		}
		sameAsReference(t, tb, cfg, k.what)
	}
}

// TestUtilisationNeverRises checks the premise of the saturation screen
// on the per-agent reference, which screens nothing, over both golden
// corpora on every preset: no agent's utilisation factor f exceeds its
// initial fInit, and no resource's utilisation its first-iteration value,
// by more than a relative 1e-12 at any iteration. The screen's margin
// below satStart (coldUtil) is a relative 1e-9.
func TestUtilisationNeverRises(t *testing.T) {
	const kappa = 1e-12
	for _, mt := range sortedTruths() {
		tb, err := NewTestbed(mt)
		if err != nil {
			t.Fatal(err)
		}
		table := newResTable(mt.Topo)
		u0 := make([]float64, table.size())
		corpus := append(goldenCorpus(mt), goldenInterleavedCorpus(mt)...)
		var worstF, worstU float64
		for i, cfg := range corpus {
			refRunWatched(tb, cfg, func(iter int, agents []class, table *resTable) {
				for _, a := range agents {
					if a.active {
						worstF = max(worstF, a.f/a.fInit-1)
					}
				}
				for r, c := range table.capacity {
					if !(c > 0) {
						continue
					}
					u := table.total[r] / c
					if iter == 0 {
						u0[r] = u
					} else if u0[r] > 0 {
						worstU = max(worstU, u/u0[r]-1)
					} else if u > 0 {
						t.Errorf("%s corpus entry %d: resource %d idle at the first iteration, utilisation %v at iteration %d", mt.Topo.Name, i, r, u, iter)
					}
				}
			})
		}
		if worstF > kappa || worstU > kappa {
			t.Errorf("%s: f rises to fInit·(1%+.3g), a utilisation to u0·(1%+.3g); want at most 1+%g", mt.Topo.Name, worstF, worstU, kappa)
		}
		t.Logf("%s: f ≤ fInit·(1%+.3g), u ≤ u0·(1%+.3g)", mt.Topo.Name, worstF, worstU)
	}
}

// TestScreenWork pins, per preset over goldenCorpus, the demand pairs the
// fixed point visits after its first iteration: without the screen, each
// run's laid-out pairs at every later iteration; with it, only those on
// resources still hot. A weakened screen keeps more pairs and fails here
// on an exact count, whatever the host's timing.
func TestScreenWork(t *testing.T) {
	want := map[string][2]int{ // laid out, hot
		"toy (Fig. 3)":        {21242, 2578},
		"X2-4 (Westmere)":     {38068, 11809},
		"X3-2 (Sandy Bridge)": {22225, 3752},
		"X4-2 (Ivy Bridge)":   {22360, 3615},
		"X5-2 (Haswell)":      {22369, 3467},
	}
	for _, mt := range sortedTruths() {
		tb, err := NewTestbed(mt)
		if err != nil {
			t.Fatal(err)
		}
		s := newRunScratch(mt.Topo)
		var all, hot int
		for _, cfg := range goldenCorpus(mt) {
			amdahl, nAct, err := tb.setup(s, &cfg)
			if err != nil {
				continue
			}
			tb.buildClasses(s, &cfg, amdahl/float64(nAct), nAct)
			s.demands.layout(&s.table, s.classes, s.memSockets)
			laid := s.demands.n
			later := tb.fixedPoint(s, &cfg.Workload, nAct) - 1
			all += later * laid
			hot += later * s.demands.n
		}
		got := [2]int{all, hot}
		if got != want[mt.Topo.Name] {
			t.Errorf("%s: %d laid-out and %d hot pair visits after the first iteration, want %v", mt.Topo.Name, all, hot, want[mt.Topo.Name])
		}
		t.Logf("%s: %d of %d pair visits after the first iteration (%.1f%%)", mt.Topo.Name, hot, all, 100*float64(hot)/float64(max(all, 1)))
	}
}
