package core_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pandia/internal/bench"
	"pandia/internal/core"
	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/simhw"
	"pandia/internal/topology"
	"pandia/internal/workload"
)

// zooOn describes one simulated machine preset and profiles every zoo
// workload on it.
func zooOn(t testing.TB, model string) (*machine.Description, []*core.Workload) {
	t.Helper()
	tb, err := simhw.NewTestbed(simhw.Truths()[model])
	if err != nil {
		t.Fatal(err)
	}
	md, err := machine.Describe(tb)
	if err != nil {
		t.Fatal(err)
	}
	var ws []*core.Workload
	for i, e := range bench.Zoo() {
		prof, err := (&workload.Profiler{TB: tb, MD: md, Seed: int64(i)}).Profile(e.Truth)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, &prof.Workload)
	}
	return md, ws
}

// randomMix places 1-8 seed-chosen zoo jobs on disjoint contexts drawn from
// a shuffled context list, so jobs regularly share SMT cores. It reports
// whether two jobs share a core.
func randomMix(rng *rand.Rand, md *machine.Description, ws []*core.Workload) ([]core.PlacedWorkload, bool) {
	topo := md.Topo
	ctxs := topo.Contexts()
	rng.Shuffle(len(ctxs), func(i, j int) { ctxs[i], ctxs[j] = ctxs[j], ctxs[i] })
	n := 1 + rng.Intn(8)
	mix := make([]core.PlacedWorkload, 0, n)
	owner := make(map[int]int)
	shared := false
	for k := 0; k < n && len(ctxs) > 0; k++ {
		threads := 1 + rng.Intn(min(len(ctxs), 2*topo.CoresPerSocket))
		place := placement.Placement(ctxs[:threads:threads])
		ctxs = ctxs[threads:]
		for _, c := range place {
			gc := topo.GlobalCore(c)
			if o, ok := owner[gc]; ok && o != k {
				shared = true
			}
			owner[gc] = k
		}
		mix = append(mix, core.PlacedWorkload{Workload: ws[rng.Intn(len(ws))], Placement: place})
	}
	return mix, shared
}

// TestCoScoreMatchesPredict is the differential test of the score-only
// solve: on three machine presets and seeded mixes of zoo jobs, every
// speedup, the worst oversubscription and its resource must equal the full
// joint prediction's bit for bit, and ScoreValidated's CoScore Score's.
func TestCoScoreMatchesPredict(t *testing.T) {
	for _, model := range []string{"x3-2", "x5-2", "x2-4"} {
		t.Run(model, func(t *testing.T) {
			md, ws := zooOn(t, model)
			cp, err := core.NewCoPredictor(md, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			var buf, vbuf []float64
			sharedMixes := 0
			for trial := 0; trial < 60; trial++ {
				mix, shared := randomMix(rng, md, ws)
				if shared {
					sharedMixes++
				}
				co, err := cp.Predict(mix)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := cp.Score(mix, buf)
				if err != nil {
					t.Fatal(err)
				}
				buf = sc.Speedups
				sv, err := cp.ScoreValidated(mix, vbuf)
				if err != nil {
					t.Fatal(err)
				}
				vbuf = sv.Speedups
				if !sameScore(sv, sc) {
					t.Fatalf("trial %d: ScoreValidated %+v, Score %+v", trial, sv, sc)
				}
				if len(sc.Speedups) != len(mix) {
					t.Fatalf("trial %d: %d speedups for %d jobs", trial, len(sc.Speedups), len(mix))
				}
				for i, p := range co.Predictions {
					if math.Float64bits(sc.Speedups[i]) != math.Float64bits(p.Speedup) {
						t.Fatalf("trial %d job %d: score speedup %v, Predict %v", trial, i, sc.Speedups[i], p.Speedup)
					}
				}
				if math.Float64bits(sc.WorstOversubscription) != math.Float64bits(co.WorstOversubscription) ||
					sc.WorstResource != co.WorstResource {
					t.Fatalf("trial %d: score worst %v on %v, Predict %v on %v", trial,
						sc.WorstOversubscription, sc.WorstResource, co.WorstOversubscription, co.WorstResource)
				}
				if worst, id := sortedMapWorst(md, mix, co.Loads); math.Float64bits(worst) != math.Float64bits(co.WorstOversubscription) ||
					id != co.WorstResource {
					t.Fatalf("trial %d: Predict worst %v on %v, sorted load-map scan %v on %v", trial,
						co.WorstOversubscription, co.WorstResource, worst, id)
				}
			}
			if sharedMixes == 0 {
				t.Fatal("no mix put two jobs on one SMT core")
			}
		})
	}
}

// sameScore reports whether two scores agree bit for bit.
func sameScore(a, b core.CoScore) bool {
	if len(a.Speedups) != len(b.Speedups) || a.WorstResource != b.WorstResource ||
		math.Float64bits(a.WorstOversubscription) != math.Float64bits(b.WorstOversubscription) {
		return false
	}
	for i := range a.Speedups {
		if math.Float64bits(a.Speedups[i]) != math.Float64bits(b.Speedups[i]) {
			return false
		}
	}
	return true
}

// sortedMapWorst is the reference worst-resource scan: the joint load map
// visited in ResourceID order, keeping the first strictly largest
// load/capacity ratio, with instruction capacity reduced on cores the mix
// doubles up.
func sortedMapWorst(md *machine.Description, mix []core.PlacedWorkload, loads map[topology.ResourceID]float64) (float64, topology.ResourceID) {
	occ := make(map[int]int)
	for _, pw := range mix {
		for _, c := range pw.Placement {
			occ[md.Topo.GlobalCore(c)]++
		}
	}
	ids := make([]topology.ResourceID, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	worst, worstID := 0.0, topology.ResourceID{}
	for _, id := range ids {
		capacity := md.Capacity(id.Kind)
		if id.Kind == topology.ResInstr {
			capacity = md.InstrCapacity(occ[id.Index])
		}
		if capacity <= 0 {
			continue
		}
		if r := loads[id] / capacity; r > worst {
			worst, worstID = r, id
		}
	}
	return worst, worstID
}

// TestCoScoreZeroAllocs pins the score-only solve at 0 allocations once the
// engine scratch and the speedup buffer have grown (alloccheck proves the
// same statically from the //pandia:noalloc annotation).
func TestCoScoreZeroAllocs(t *testing.T) {
	if core.InvariantChecksEnabled() {
		t.Skip("invariant checks route Score through the allocating full path")
	}
	md, ws := zooOn(t, "x3-2")
	cp, err := core.NewCoPredictor(md, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := randomMix(rand.New(rand.NewSource(3)), md, ws)
	buf := make([]float64, len(mix))
	if _, err := cp.Score(mix, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cp.Score(mix, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Score allocates %v times per call, want 0", allocs)
	}
}
