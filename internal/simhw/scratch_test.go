package simhw

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"pandia/internal/counters"
	"pandia/internal/topology"
)

// TestTestbedScratchReuse runs one scratch through runs with and without
// stressors over the same resources, in both orders, and holds every
// result to a fresh Testbed's. The fixed point sets the user and stressor
// counts once per run and resets the demand extremes only where a
// stressor shares a resource, so a stress-free run must not read the
// stressor counts an earlier run left in the pooled table.
func TestTestbedScratchReuse(t *testing.T) {
	for _, mt := range []MachineTruth{X52Truth(), X24Truth()} {
		topo := mt.Topo
		wl := goldenWorkloads()[1] // DRAM-heavy, with cache spill
		st := goldenStressors(mt)
		// Most threads on socket 0 and two on the last socket: unequal
		// clocks and spill give the two classes unequal DRAM demands on
		// socket 0's oversubscribed DRAM.
		last := topo.Sockets - 1
		place := []topology.Context{ctx(last, 0, 0), ctx(last, 1, 0)}
		for c := 0; c < topo.CoresPerSocket-1; c++ {
			place = append(place, ctx(0, c, 0))
		}
		stressed := RunConfig{
			Workload: wl, Placement: place, Power: PowerTurbo, Seed: 5,
			Stressors: []PlacedStressor{
				{Ctx: ctx(0, topo.CoresPerSocket-1, 0), Truth: st[0]},
				{Ctx: ctx(0, 0, 1), Truth: st[2]},
			},
		}
		free := RunConfig{Workload: wl, Placement: place, Power: PowerTurbo, Seed: 5}
		bound := free
		bound.Memory = MemPolicy{BindSockets: []int{0}}

		want := func(cfg RunConfig) []byte {
			fresh, err := NewTestbed(mt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fresh.Run(cfg)
			return digestResult(nil, res, err)
		}
		tb, err := NewTestbed(mt)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range [][]RunConfig{{stressed, free, bound}, {bound, free, stressed}, {stressed, bound, stressed, free}} {
			s := newRunScratch(topo)
			for i, cfg := range order {
				res, err := tb.run(s, &cfg)
				if got := digestResult(nil, res, err); !bytes.Equal(got, want(cfg)) {
					t.Errorf("%s: run %d of %d (%d stressors, memory %v) on reused scratch differs from a fresh testbed",
						topo.Name, i, len(order), len(cfg.Stressors), cfg.Memory.BindSockets)
				}
				res, err = tb.Run(cfg)
				if got := digestResult(nil, res, err); !bytes.Equal(got, want(cfg)) {
					t.Errorf("%s: run %d of %d through the pool differs from a fresh testbed", topo.Name, i, len(order))
				}
			}
		}
	}
}

// TestTestbedVanishingDemands holds the class solver to the per-agent
// reference where a laid-out pair offers no demand at some iteration's
// utilisation: a subnormal demand that rounds to 0 (the walk omitted such
// a pair) and a memory share that rounds to 0 while the DRAM demand does
// not (the walk kept such a pair at 0). Both must drop out of the extremes,
// the totals and the slowdowns, and only the first out of water-filling.
func TestTestbedVanishingDemands(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	wl := WorkloadTruth{
		Name: "vanishing", SeqTime: 10, ParallelFrac: 0.5,
		Demand:       counters.Rates{Instr: 2, L2: tiny, L3: 4, DRAM: 2 * tiny},
		WorkingSetMB: 1, CommCost: 0.01, LoadBalance: 0.5, Burstiness: 0.2,
		MemBoundFrac: 0.5,
	}
	// At a utilisation below 1/2, the L2 demand rounds to 0, and the DRAM
	// demand to the smallest subnormal, whose half share rounds to 0. A
	// DRAM demand that rounds to 0 is absent from the DRAM that a hog and
	// a milder stressor water-fill, where a present pair at 0 would be
	// slowed and would join the population.
	gone := wl
	gone.Demand.DRAM = tiny
	mild := WorkloadTruth{Name: "mild-dram", SeqTime: 1, ParallelFrac: 1,
		Demand: counters.Rates{Instr: 0.1, DRAM: 20}, MemBoundFrac: 1}
	var absents, zeros int
	for _, mt := range []MachineTruth{X52Truth(), X24Truth()} {
		tb, err := NewTestbed(mt)
		if err != nil {
			t.Fatal(err)
		}
		topo := mt.Topo
		st := goldenStressors(mt)
		place := []topology.Context{ctx(0, 0, 0), ctx(1, 0, 0), ctx(0, 1, 0), ctx(1, 1, 0), ctx(0, 2, 0)}
		cfgs := []RunConfig{
			{Workload: wl, Placement: place},
			{Workload: wl, Placement: place, Memory: MemPolicy{BindSockets: []int{1}}},
			{Workload: wl, Placement: place, Power: PowerTurbo, Stressors: []PlacedStressor{
				{Ctx: ctx(0, 0, 1), Truth: st[0]}, {Ctx: ctx(1, 3, 0), Truth: st[2]},
			}},
			{Workload: gone, Placement: place, Stressors: []PlacedStressor{
				{Ctx: ctx(0, 3, 0), Truth: st[0]}, {Ctx: ctx(0, 4, 0), Truth: mild}, {Ctx: ctx(1, 3, 0), Truth: st[0]},
			}},
		}
		for i, cfg := range cfgs {
			sameAsReference(t, tb, cfg, fmt.Sprintf("%s vanishing config %d", topo.Name, i))
			// Both solvers end on the same utilisations, so every total
			// the class solver keeps equals the per-agent walk's: a pair
			// without demand added nothing to either.
			s := newRunScratch(topo)
			if _, err := tb.run(s, &cfg); err != nil {
				t.Fatal(err)
			}
			ref := newRunScratch(topo)
			amdahl, nAct, err := tb.setup(ref, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			refAgents(tb, ref, &cfg, amdahl/float64(nAct), nAct)
			refFixedPoint(tb, ref, &cfg.Workload, nAct, nil)
			for _, r := range s.demands.res {
				if got, want := s.table.total[r], ref.table.total[r]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s vanishing config %d: resource %d totals %v, per-agent walk %v", topo.Name, i, r, got, want)
				}
			}
			for _, d := range s.demands.d[:s.demands.n] {
				switch d {
				case absent:
					absents++
				case 0:
					zeros++
				}
			}
		}
	}
	// The runs must reach both cases: an absent pair, and a present one
	// at 0.
	if absents == 0 || zeros == 0 {
		t.Errorf("%d absent and %d zero pairs at the runs' last iterations; the test needs both", absents, zeros)
	}
}

// TestDemandsOfSkipsAbsent checks water-filling's population: each
// present pair of the resource repeated by its copies, a pair at 0
// included, an absent pair left out.
func TestDemandsOfSkipsAbsent(t *testing.T) {
	w := newDemandWalk(8, 2, 16)
	for _, p := range []struct {
		idx int
		d   float64
		m   int
	}{{3, 2.5, 2}, {4, 9, 1}, {3, absent, 3}, {3, 0, 1}, {3, 7, 1}} {
		w.idx[w.n], w.d[w.n], w.m[w.n] = p.idx, p.d, p.m
		w.n++
	}
	got := w.demandsOf(3)
	if want := []float64{2.5, 2.5, 0, 7}; !slices.Equal(got, want) {
		t.Errorf("demandsOf = %v, want %v", got, want)
	}
}
