package core

import (
	"math"
	"sort"
	"testing"

	"pandia/internal/machine"
	"pandia/internal/placement"
)

// roundSweep is the sequential reference of the pruned sweep's round rule
// (DESIGN.md §12): every placement ordered by its bound, descending, ties
// in index order; the first solved alone as the seed; the rest in rounds of
// sweepRound, each placement pruned when its bound is below frac times the
// best speedup solved before its round began. It also returns the order
// and the bounds.
func roundSweep(t *testing.T, md *machine.Description, w *Workload, places []placement.Placement, frac float64) ([]TimePrediction, SweepStats, []int, []float64) {
	t.Helper()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := make([]float64, len(places))
	order := make([]int, len(places))
	for i, place := range places {
		bounds[i] = p.speedupBound(place)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] > bounds[order[b]] })
	out := make([]TimePrediction, len(places))
	var stats SweepStats
	best := math.Inf(-1)
	solve := func(i int) float64 {
		tp, err := p.PredictTime(places[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tp
		stats.Evaluated++
		return tp.Speedup
	}
	best = solve(order[0])
	for lo := 1; lo < len(order); lo += sweepRound {
		thr, roundBest := frac*best, best
		for _, i := range order[lo:min(lo+sweepRound, len(order))] {
			if bounds[i] < thr {
				out[i] = TimePrediction{Pruned: true}
				stats.Pruned++
				continue
			}
			roundBest = math.Max(roundBest, solve(i))
		}
		best = roundBest
	}
	return out, stats, order, bounds
}

// roundOf is the round of a position in the bound order: −1 for the seed.
func roundOf(pos int) int {
	if pos == 0 {
		return -1
	}
	return (pos - 1) / sweepRound
}

// TestPredictSweepRoundsDeterministic holds the pruned sweep at 1, 2 and 8
// workers, every slot and the stats, to the sequential reference of the
// round rule, on a placement set whose unpruned candidates span several
// rounds. On the first workload the seed is the best placement; on the
// second, a contended one, the best turns up rounds after the seed and its
// speedup, published at a barrier, prunes a later round. It also checks the
// bound-order property: every placement whose bound is below frac times
// the best speedup, outside the best's round, is pruned.
func TestPredictSweepRoundsDeterministic(t *testing.T) {
	md := quickMachine()
	var places []placement.Placement
	for seed := uint16(0); seed < 1500; seed++ {
		places = append(places, quickPlacement(md.Topo, seed, uint8(seed*7)))
	}
	for _, tc := range []struct {
		name       string
		w          *Workload
		seedIsBest bool
	}{
		{"seed best", quickWorkload(100, 80, 160, 120, 220, 70, 150), true},
		{"contended", quickWorkload(100, 200, 255, 200, 250, 100, 100), false},
	} {
		full, err := PredictSweep(md, tc.w, places, Options{})
		if err != nil {
			t.Fatal(err)
		}
		best, bestIdx := math.Inf(-1), -1
		for i, tp := range full {
			if tp.Speedup > best {
				best, bestIdx = tp.Speedup, i
			}
		}
		for _, frac := range []float64{0.5, 0.9, 1} {
			want, wantStats, order, bounds := roundSweep(t, md, tc.w, places, frac)
			pos := make([]int, len(order))
			for k, i := range order {
				pos[i] = k
			}
			// The last position solved shows how many rounds the sweep ran.
			last := 0
			for k, i := range order {
				if !want[i].Pruned {
					last = k
				}
			}
			bestRound := roundOf(pos[bestIdx])
			t.Logf("%s, frac %v: %+v, best in round %d, last solve in round %d", tc.name, frac, wantStats, bestRound, roundOf(last))
			if (bestRound < 0) != tc.seedIsBest || (!tc.seedIsBest && roundOf(last) <= bestRound) {
				t.Errorf("%s, frac %v: best in round %d, last solve in round %d; the test no longer covers its case",
					tc.name, frac, bestRound, roundOf(last))
			}
			if wantStats.Pruned == 0 {
				t.Errorf("%s, frac %v pruned nothing", tc.name, frac)
			}
			for _, workers := range []int{1, 2, 8} {
				got, gotStats, err := predictSweepN(md, tc.w, places, Options{}, frac, workers)
				if err != nil {
					t.Fatal(err)
				}
				if gotStats != wantStats {
					t.Errorf("%s, frac %v, %d workers: stats %+v, want %+v", tc.name, frac, workers, gotStats, wantStats)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, frac %v, %d workers, placement %d: %+v, want %+v", tc.name, frac, workers, i, got[i], want[i])
					}
				}
			}
			for i := range places {
				if want[i].Pruned {
					if full[i].Speedup >= frac*best {
						t.Fatalf("%s, frac %v: placement %d pruned at speedup %v, best %v", tc.name, frac, i, full[i].Speedup, best)
					}
					continue
				}
				if want[i] != full[i] {
					t.Fatalf("%s, frac %v: placement %d solved as %+v, full sweep %+v", tc.name, frac, i, want[i], full[i])
				}
				if bounds[i] < frac*best && roundOf(pos[i]) != bestRound {
					t.Fatalf("%s, frac %v: placement %d (bound %v, round %d) is below %v of the best (round %d) but was solved",
						tc.name, frac, i, bounds[i], roundOf(pos[i]), frac, bestRound)
				}
			}
		}
	}
}
