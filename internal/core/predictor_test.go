package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// predictorPlacements builds a spread of placements of different sizes and
// socket mixes on the toy machine, exercising the scratch re-binding.
func predictorPlacements() []placement.Placement {
	return []placement.Placement{
		{{Socket: 0, Core: 0, Slot: 0}},
		{{Socket: 0, Core: 0, Slot: 0}, {Socket: 0, Core: 0, Slot: 1}},
		workedExamplePlacement(),
		{{Socket: 0, Core: 0, Slot: 0}, {Socket: 1, Core: 0, Slot: 0}},
		{{Socket: 1, Core: 0, Slot: 0}, {Socket: 1, Core: 0, Slot: 1}, {Socket: 0, Core: 0, Slot: 0}},
	}
}

// TestPredictorMatchesPredict pins the refactoring's central claim: a reused
// Predictor returns bit-identical results to the one-shot Predict across a
// sequence of different placements.
func TestPredictorMatchesPredict(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, place := range predictorPlacements() {
		want, err := Predict(md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Predict(place)
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != want.Time || got.Speedup != want.Speedup {
			t.Errorf("%v: Predictor.Predict = (%v, %v), one-shot = (%v, %v)",
				place, got.Time, got.Speedup, want.Time, want.Speedup)
		}
		for i := range want.Slowdowns {
			if got.Slowdowns[i] != want.Slowdowns[i] || got.Utilizations[i] != want.Utilizations[i] {
				t.Errorf("%v thread %d: detail vectors diverge", place, i)
			}
		}
		if len(got.Loads) != len(want.Loads) {
			t.Errorf("%v: load map sizes diverge: %d vs %d", place, len(got.Loads), len(want.Loads))
		}
		tp, err := p.PredictTime(place)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Time != want.Time || tp.Speedup != want.Speedup ||
			tp.Iterations != want.Iterations || tp.Converged != want.Converged {
			t.Errorf("%v: PredictTime = %+v, want (%v, %v, %d, %v)",
				place, tp, want.Time, want.Speedup, want.Iterations, want.Converged)
		}
	}
}

// TestPredictorValidationErrors pins the error parity of the bitset-based
// placement validation against placement.Validate plus the engine's
// cross-workload check.
func TestPredictorValidationErrors(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		place placement.Placement
		want  string
	}{
		{"empty", placement.Placement{}, "placement: empty"},
		{"off-machine", placement.Placement{{Socket: 5, Core: 0, Slot: 0}},
			"placement: context s5/c0/t0 not on machine " + md.Topo.Name},
		{"duplicate", placement.Placement{{Socket: 0, Core: 0, Slot: 0}, {Socket: 0, Core: 0, Slot: 0}},
			"placement: context s0/c0/t0 used twice"},
	}
	for _, tc := range cases {
		if _, err := p.Predict(tc.place); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Predict error = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := p.PredictTime(tc.place); err == nil || err.Error() != tc.want {
			t.Errorf("%s: PredictTime error = %v, want %q", tc.name, err, tc.want)
		}
		// One-shot parity.
		if _, err := Predict(md, w, tc.place, Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: one-shot error = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewPredictor(md, nil, Options{}); err == nil || err.Error() != "core: nil workload" {
		t.Errorf("nil workload: error = %v", err)
	}
}

// TestPredictorAfterError checks that a failed bind does not poison the
// predictor: the next valid placement still predicts correctly.
func TestPredictorAfterError(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Predict(md, w, workedExamplePlacement(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(placement.Placement{{Socket: 9, Core: 9, Slot: 9}}); err == nil {
		t.Fatal("expected error for off-machine placement")
	}
	got, err := p.Predict(workedExamplePlacement())
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Speedup != want.Speedup {
		t.Errorf("after error: (%v, %v), want (%v, %v)", got.Time, got.Speedup, want.Time, want.Speedup)
	}
}

// TestPredictTimeZeroAllocs pins the fast path at zero heap allocations per
// prediction — the tentpole acceptance criterion. The engine scratch is
// warmed by one call; every subsequent call must reuse it entirely. A
// disabled tracer is wired in deliberately: the observability layer must
// compile down to a branch (and the always-on metric counters to atomics)
// without touching the heap.
func TestPredictTimeZeroAllocs(t *testing.T) {
	prev := SetInvariantChecks(false)
	defer SetInvariantChecks(prev)
	tracer := obs.NewRingTracer(16, nil)
	tracer.SetEnabled(false)
	p, err := NewPredictor(toyMachine(), exampleWorkload(), Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	place := workedExamplePlacement()
	if _, err := p.PredictTime(place); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.PredictTime(place); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictTime allocates %v per op; want 0", allocs)
	}
	if got := len(tracer.Events()); got != 0 {
		t.Fatalf("disabled tracer recorded %d events", got)
	}
}

// TestPredictAllocBudget bounds the full-detail path: after warm-up it may
// allocate only the caller-visible result (the Prediction, its seven detail
// vectors, and the load map) — not engine state.
func TestPredictAllocBudget(t *testing.T) {
	prev := SetInvariantChecks(false)
	defer SetInvariantChecks(prev)
	p, err := NewPredictor(toyMachine(), exampleWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	place := workedExamplePlacement()
	if _, err := p.Predict(place); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(place); err != nil {
			t.Fatal(err)
		}
	})
	// The worked example touches ~10 resources: prediction struct + 7
	// vectors + map headers and buckets comfortably fit in 30 allocations.
	if allocs > 30 {
		t.Fatalf("Predict allocates %v per op; budget is 30", allocs)
	}
}

// TestPredictSweepMatchesSequential forces the parallel path (the machine
// running the tests may have one CPU) and requires bit-identical results to
// sequential one-shot predictions, in order.
func TestPredictSweepMatchesSequential(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	var places []placement.Placement
	for _, s := range placement.Enumerate(md.Topo) {
		places = append(places, s.Expand(md.Topo))
	}
	if len(places) < 8 {
		t.Fatalf("toy machine enumerates only %d shapes", len(places))
	}
	got, _, err := predictSweepN(md, w, places, Options{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(places) {
		t.Fatalf("got %d results for %d placements", len(got), len(places))
	}
	for i, place := range places {
		want, err := Predict(md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Time != want.Time || got[i].Speedup != want.Speedup {
			t.Errorf("placement %d %v: sweep = (%v, %v), want (%v, %v)",
				i, place, got[i].Time, got[i].Speedup, want.Time, want.Speedup)
		}
	}
	// The exported entry point must agree regardless of worker count.
	one, _, err := predictSweepN(md, w, places, Options{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != got[i] {
			t.Fatalf("worker counts disagree at %d: %+v vs %+v", i, one[i], got[i])
		}
	}
}

// TestPredictSweepNeverPrunes checks that the full sweep, which runs the
// pruned sweep's loop at frac 0, solves every slot — on a placement set where
// the frac-1 bound does prune — and that its results do not depend on the
// worker count.
func TestPredictSweepNeverPrunes(t *testing.T) {
	md := quickMachine()
	w := quickWorkload(100, 80, 160, 120, 220, 70, 150)
	var pls []placement.Placement
	for seed := uint16(0); seed < 200; seed++ {
		pls = append(pls, quickPlacement(md.Topo, seed, uint8(seed*3)))
	}
	if _, st, err := PredictSweepPruned(md, w, pls, Options{}, 1); err != nil {
		t.Fatal(err)
	} else if st.Pruned == 0 {
		t.Fatal("frac-1 sweep pruned nothing; test is vacuous")
	}
	full, err := PredictSweep(md, w, pls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, st1, err := predictSweepN(md, w, pls, Options{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, st4, err := predictSweepN(md, w, pls, Options{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := SweepStats{Evaluated: int64(len(pls))}
	if st1 != want || st4 != want {
		t.Fatalf("stats = %+v (1 worker), %+v (4 workers), want %+v", st1, st4, want)
	}
	for i := range pls {
		if full[i].Pruned {
			t.Fatalf("PredictSweep marked placement %d pruned", i)
		}
		if one[i] != four[i] || full[i] != one[i] {
			t.Fatalf("placement %d: 1 worker %+v, 4 workers %+v, PredictSweep %+v", i, one[i], four[i], full[i])
		}
	}
}

// TestPredictSweepError checks the first-error bailout of the parallel
// sweep: an invalid placement mid-list fails the whole sweep with its error.
func TestPredictSweepError(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	places := make([]placement.Placement, 64)
	for i := range places {
		places[i] = workedExamplePlacement()
	}
	places[37] = placement.Placement{{Socket: 7, Core: 0, Slot: 0}}
	if _, _, err := predictSweepN(md, w, places, Options{}, 0, 4); err == nil {
		t.Fatal("expected an error from the invalid placement")
	} else if want := "placement: context s7/c0/t0 not on machine " + md.Topo.Name; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if _, err := PredictSweep(md, w, nil, Options{}); err != nil {
		t.Errorf("empty sweep: %v", err)
	}
}

// TestPredictorDegraded mirrors the degraded-mode golden path through the
// reusable predictor: construction-time repairs surface on every
// prediction, and the fast path agrees with the full path.
func TestPredictorDegraded(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	w.Name = "golden"
	w.ParallelFrac = math.NaN()
	p, err := NewPredictor(md, w, Options{AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	place := workedExamplePlacement()
	for round := 0; round < 2; round++ {
		pred, err := p.Predict(place)
		if err != nil {
			t.Fatal(err)
		}
		if !pred.Degraded || len(pred.DegradedReasons) == 0 {
			t.Fatalf("round %d: expected a degraded prediction, got %+v", round, pred)
		}
		want := `workload "golden": parallel fraction NaN unusable; assuming serial (0)`
		if pred.DegradedReasons[0] != want {
			t.Errorf("round %d: reason[0] = %q, want %q", round, pred.DegradedReasons[0], want)
		}
		tp, err := p.PredictTime(place)
		if err != nil {
			t.Fatal(err)
		}
		if !tp.Degraded || tp.Time != pred.Time {
			t.Errorf("round %d: fast path = %+v, full path time %v", round, tp, pred.Time)
		}
	}
	// Caller's workload must not have been repaired in place.
	if !math.IsNaN(w.ParallelFrac) {
		t.Error("NewPredictor mutated the caller's workload")
	}
}

// TestPredictTimeWithInvariantChecks verifies the fast path routes through
// the checked full path when runtime invariant checks are on.
func TestPredictTimeWithInvariantChecks(t *testing.T) {
	prev := SetInvariantChecks(true)
	defer SetInvariantChecks(prev)
	p, err := NewPredictor(toyMachine(), exampleWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Predict(workedExamplePlacement())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := p.PredictTime(workedExamplePlacement())
	if err != nil {
		t.Fatal(err)
	}
	if tp.Time != want.Time || tp.Speedup != want.Speedup {
		t.Errorf("checked fast path = %+v, want (%v, %v)", tp, want.Time, want.Speedup)
	}
}

// TestCoPredictorMatchesPredictCoSchedule pins the reusable joint pipeline
// against the one-shot function across repeated, different co-schedules.
func TestCoPredictorMatchesPredictCoSchedule(t *testing.T) {
	md := toyMachine()
	w1 := exampleWorkload()
	w2 := exampleWorkload()
	w2.Name = "second"
	cp, err := NewCoPredictor(md, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mixes := [][]PlacedWorkload{
		{
			{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
			{Workload: w2, Placement: placement.Placement{{Socket: 1, Core: 0, Slot: 0}}},
		},
		{
			{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}, {Socket: 0, Core: 0, Slot: 1}}},
		},
		{
			{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
			{Workload: w2, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 1}, {Socket: 1, Core: 0, Slot: 0}}},
		},
	}
	for round, mix := range mixes {
		want, err := PredictCoSchedule(md, mix, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cp.Predict(mix)
		if err != nil {
			t.Fatal(err)
		}
		if got.WorstOversubscription != want.WorstOversubscription || got.WorstResource != want.WorstResource {
			t.Errorf("mix %d: worst (%v on %v), want (%v on %v)", round,
				got.WorstOversubscription, got.WorstResource, want.WorstOversubscription, want.WorstResource)
		}
		for i := range want.Predictions {
			if got.Predictions[i].Time != want.Predictions[i].Time {
				t.Errorf("mix %d job %d: time %v, want %v", round, i,
					got.Predictions[i].Time, want.Predictions[i].Time)
			}
		}
	}
	// Overlapping placements still fail with the historical error.
	overlap := []PlacedWorkload{
		{Workload: w1, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: w2, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
	}
	if _, err := cp.Predict(overlap); err == nil ||
		err.Error() != "core: context s0/c0/t0 claimed by two workloads" {
		t.Errorf("overlap error = %v", err)
	}
}

// TestEngineBitsetOccupancy exercises the bitset word boundaries: contexts
// with dense indices around 63/64 must not collide.
func TestEngineBitsetOccupancy(t *testing.T) {
	md := toyMachine()
	// The toy machine has 4 contexts; widen via a bigger topology to cross a
	// word boundary.
	big := *md
	big.Topo = topology.Machine{Name: "wide", Sockets: 2, CoresPerSocket: 18, ThreadsPerCore: 2}
	w := exampleWorkload()
	p, err := NewPredictor(&big, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	place := placement.Placement{
		big.Topo.ContextAt(63), big.Topo.ContextAt(64), big.Topo.ContextAt(65),
	}
	if _, err := p.Predict(place); err != nil {
		t.Fatal(err)
	}
	dup := placement.Placement{big.Topo.ContextAt(64), big.Topo.ContextAt(64)}
	if _, err := p.Predict(dup); err == nil {
		t.Fatal("expected duplicate-context error across word boundary")
	} else if !strings.Contains(err.Error(), "used twice") {
		t.Fatalf("duplicate error = %v", err)
	}
}

// churn drives a deterministic randomized job-churn sequence over disjoint
// slot regions of the machine, so placements never overlap. Each of the four
// slots owns a fixed quarter of the context space and is either empty or
// holds one job placed inside its region.
type churn struct {
	md    *machine.Description
	slots [4]placement.Placement // nil = empty
	ws    [4]*Workload
	x     uint32
}

func newChurnState(seed uint32) *churn {
	c := &churn{md: quickMachine(), x: seed*2654435761 + 1}
	for i := range c.ws {
		b := uint8(37*i + 11)
		c.ws[i] = quickWorkload(b, b+40, b+90, b+140, b+190, b+230, b+17)
		c.ws[i].Name = "churn-" + string(rune('a'+i))
	}
	return c
}

func (c *churn) rand() uint32 {
	c.x = c.x*1664525 + 1013904223
	return c.x >> 8
}

// place builds a placement of n contexts inside slot i's quarter.
func (c *churn) place(i, n int) placement.Placement {
	total := c.md.Topo.TotalContexts()
	width := total / len(c.slots)
	if n > width {
		n = width
	}
	var p placement.Placement
	for k := 0; k < n; k++ {
		p = append(p, c.md.Topo.ContextAt(i*width+k))
	}
	return p
}

// step applies one churn operation (join, leave, move, or repeat) and
// reports the resulting placed-workload mix.
func (c *churn) step() []PlacedWorkload {
	i := int(c.rand()) % len(c.slots)
	switch c.rand() % 4 {
	case 0: // join (or grow if occupied)
		c.slots[i] = c.place(i, 1+int(c.rand())%6)
	case 1: // leave
		c.slots[i] = nil
	case 2: // move: re-place the same job with a different thread count
		if c.slots[i] != nil {
			c.slots[i] = c.place(i, 1+int(c.rand())%6)
		}
	case 3: // repeat: unchanged mix, re-bound onto the same scratch
	}
	return c.placed()
}

func (c *churn) placed() []PlacedWorkload {
	var out []PlacedWorkload
	for i, p := range c.slots {
		if p != nil {
			out = append(out, PlacedWorkload{Workload: c.ws[i], Placement: p})
		}
	}
	return out
}

// TestCoPredictorChurnBitIdentical is the randomized differential test of
// engine-scratch reuse: a persistent CoPredictor must return bit-identical
// predictions to a cold PredictCoSchedule at every step of a randomized
// join/leave/move/repeat churn sequence, however the scratch slabs were
// sized and filled by the calls before.
func TestCoPredictorChurnBitIdentical(t *testing.T) {
	for _, seed := range []uint32{1, 7, 42, 1234} {
		c := newChurnState(seed)
		cp, err := NewCoPredictor(c.md, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			placed := c.step()
			if len(placed) == 0 {
				continue
			}
			warm, err := cp.Predict(placed)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			cold, err := PredictCoSchedule(c.md, placed, Options{})
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Fatalf("seed %d step %d: reused-scratch prediction diverged from cold solve\nwarm: %+v\ncold: %+v",
					seed, step, warm, cold)
			}
		}
	}
}
