package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pandia/internal/core"
	"pandia/internal/placement"
)

// boundOptionSets are the option sets the bound is checked under.
// MaxIterations 1 and 3 stop most solves before they converge, so the bound is
// held to mid-iteration values too.
var boundOptionSets = []struct {
	name string
	opt  core.Options
}{
	{"default", core.Options{}},
	{"no-comm", core.Options{DisableComm: true}},
	{"no-lb", core.Options{DisableLoadBalance: true}},
	{"single-pass", core.Options{MaxIterations: 1}},
	{"max-3", core.Options{MaxIterations: 3}},
}

// TestLockstepBoundAdmissible checks that the sweep's dominance bound is at
// least the PredictTime speedup for every zoo workload on every preset and
// every sampled canonical shape, under each option set, converged or not.
// Under AllowDegraded the bound is Amdahl's, widened by the bound's slack.
func TestLockstepBoundAdmissible(t *testing.T) {
	for _, model := range presetModels() {
		t.Run(model, func(t *testing.T) {
			md, ws := zooOn(t, model)
			topo := md.Topo
			shapes := placement.Sample(placement.Enumerate(topo), classShapeSample, 1)
			places := placement.ExpandAll(shapes)
			stride := shapeStride()
			var checked, unconverged, tighter int
			for _, os := range boundOptionSets {
				for wi, w := range ws {
					p, err := core.NewPredictor(md, w, os.opt)
					if err != nil {
						t.Fatal(err)
					}
					for si := wi % stride; si < len(places); si += stride {
						tp, err := p.PredictTime(places[si])
						if err != nil {
							t.Fatal(err)
						}
						bound := p.SpeedupBound(places[si])
						if tp.Speedup > bound {
							t.Fatalf("%s %s %s: speedup %v above bound %v (%d iterations, converged %v)",
								os.name, w.Name, shapes[si], tp.Speedup, bound, tp.Iterations, tp.Converged)
						}
						checked++
						if !tp.Converged {
							unconverged++
						}
						if bound < amdahlBound(w, len(places[si])) {
							tighter++
						}
					}
				}
			}
			if unconverged == 0 {
				t.Error("every solve converged; the bound went unchecked on mid-iteration values")
			}
			if tighter == 0 {
				t.Error("the bound never fell below Amdahl's; the lockstep term went unchecked")
			}
			t.Logf("%d predictions, %d unconverged, %d bounds below Amdahl", checked, unconverged, tighter)

			for _, w := range ws {
				p, err := core.NewPredictor(md, w, core.Options{AllowDegraded: true})
				if err != nil {
					t.Fatal(err)
				}
				for si := 0; si < len(places); si += stride {
					if got, want := p.SpeedupBound(places[si]), amdahlBound(w, len(places[si])); got != want {
						t.Fatalf("AllowDegraded %s %s: bound %v, want Amdahl %v", w.Name, shapes[si], got, want)
					}
				}
			}
		})
	}
}

// amdahlBound is the dominance bound without its lockstep term.
func amdahlBound(w *core.Workload, n int) float64 {
	return w.AmdahlSpeedup(n) * (1 + core.BoundSlack)
}

// FuzzSweepBound decodes a small topology and machine description, a
// workload, an option set and a few random placements, then checks that
// each placement's dominance bound is at least its PredictTime speedup, that
// a pruned sweep over them prunes only placements the full sweep puts below
// the target fraction of its best, and that the pruned sweep's slots and
// stats are the same at 1, 2 and 8 workers.
func FuzzSweepBound(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0, 40, 90, 120, 200, 30, 60, 7, 5, 99, 150, 3, 12, 200, 4, 9})
	f.Add([]byte{3, 2, 1, 1, 255, 10, 200, 30, 0, 60, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{2, 3, 1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 200, 255, 255, 255, 0})
	f.Add([]byte{1, 1, 3, 16, 128, 128, 128, 128, 128, 128, 128, 128, 77, 200, 180, 160, 140, 120, 100, 80, 60, 40, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		md, flags := r.machine()
		w := r.workload("w", 0.5)
		if md.Validate() != nil || w.Validate() != nil {
			return
		}
		topo := md.Topo
		opt := fuzzOptions(flags)
		opt.AllowDegraded = flags&32 != 0
		rng := rand.New(rand.NewSource(int64(r.next())<<8 | int64(r.next())))
		places := make([]placement.Placement, 1+int(r.next())%6)
		for i := range places {
			ctxs := topo.Contexts()
			rng.Shuffle(len(ctxs), func(a, b int) { ctxs[a], ctxs[b] = ctxs[b], ctxs[a] })
			places[i] = placement.Placement(ctxs[:1+rng.Intn(len(ctxs))])
		}
		p, err := core.NewPredictor(md, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		describe := func(i int) string {
			return fmt.Sprintf("topology %+v, workload %+v, options %+v, placement %v", topo, *w, opt, places[i])
		}
		for i, place := range places {
			tp, err := p.PredictTime(place)
			if err != nil {
				t.Fatal(err)
			}
			bound := p.SpeedupBound(place)
			if tp.Speedup > bound {
				t.Fatalf("%s: speedup %v above bound %v", describe(i), tp.Speedup, bound)
			}
			if amdahl := amdahlBound(w, len(place)); opt.AllowDegraded && bound != amdahl {
				t.Fatalf("%s: AllowDegraded bound %v, want Amdahl %v", describe(i), bound, amdahl)
			}
		}
		full, err := core.PredictSweep(md, w, places, opt)
		if err != nil {
			t.Fatal(err)
		}
		frac := 0.5 + 0.5*r.unit()
		pruned, stats, err := core.PredictSweepPruned(md, w, places, opt, frac)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, st, err := core.PredictSweepN(md, w, places, opt, frac, workers)
			if err != nil {
				t.Fatal(err)
			}
			if st != stats {
				t.Fatalf("topology %+v, workload %+v, options %+v: %d workers: stats %+v, want %+v", topo, *w, opt, workers, st, stats)
			}
			for i := range got {
				if got[i] != pruned[i] {
					t.Fatalf("%s: %d workers: %+v, want %+v", describe(i), workers, got[i], pruned[i])
				}
			}
		}
		best := math.Inf(-1)
		for _, tp := range full {
			best = math.Max(best, tp.Speedup)
		}
		for i := range pruned {
			if pruned[i].Pruned && full[i].Speedup >= frac*best {
				t.Fatalf("%s: pruned at frac %v with speedup %v, best %v", describe(i), frac, full[i].Speedup, best)
			}
			if !pruned[i].Pruned && pruned[i] != full[i] {
				t.Fatalf("%s: pruned sweep %+v, full sweep %+v", describe(i), pruned[i], full[i])
			}
		}
	})
}
