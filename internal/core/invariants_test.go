package core

import (
	"math"
	"strings"
	"testing"

	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// invariantFixture builds a machine, workload and placement that produce a
// healthy prediction under moderate contention.
func invariantFixture(t *testing.T) (*machine.Description, *Workload, placement.Placement) {
	t.Helper()
	topo := topology.Machine{Name: "inv-test", Sockets: 2, CoresPerSocket: 4, ThreadsPerCore: 2}
	md := &machine.Description{
		Topo:           topo,
		CorePeakInstr:  1000,
		SMTFactor:      1.3,
		L1BW:           4000,
		L2BW:           2000,
		L3LinkBW:       360,
		L3AggBW:        5000,
		DRAMBW:         1600,
		InterconnectBW: 1200,
	}
	if err := md.Validate(); err != nil {
		t.Fatalf("fixture machine invalid: %v", err)
	}
	w := &Workload{
		Name:                "inv-wl",
		T1:                  100,
		ParallelFrac:        0.95,
		InterSocketOverhead: 0.002,
		LoadBalance:         0.5,
		Burstiness:          0.1,
	}
	w.Demand.Instr = 800
	w.Demand.L1 = 1200
	w.Demand.L3 = 200
	w.Demand.DRAM = 400
	if err := w.Validate(); err != nil {
		t.Fatalf("fixture workload invalid: %v", err)
	}
	var place placement.Placement
	for c := 0; c < 4; c++ {
		place = append(place, topology.Context{Socket: c % 2, Core: c / 2})
	}
	return md, w, place
}

func TestCheckInvariantsAcceptsHealthyPrediction(t *testing.T) {
	md, w, place := invariantFixture(t)
	p, err := Predict(md, w, place, Options{})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if err := CheckInvariants(w, md, p); err != nil {
		t.Fatalf("healthy prediction rejected: %v", err)
	}
}

func TestPredictWithChecksEnabled(t *testing.T) {
	md, w, place := invariantFixture(t)
	prev := SetInvariantChecks(true)
	defer SetInvariantChecks(prev)
	if !InvariantChecksEnabled() {
		t.Fatal("SetInvariantChecks(true) did not enable checks")
	}
	if _, err := Predict(md, w, place, Options{}); err != nil {
		t.Fatalf("Predict with invariant checks: %v", err)
	}
	placed := []PlacedWorkload{
		{Workload: w, Placement: place[:2]},
		{Workload: w, Placement: place[2:]},
	}
	if _, err := PredictCoSchedule(md, placed, Options{}); err != nil {
		t.Fatalf("PredictCoSchedule with invariant checks: %v", err)
	}
}

func TestCheckInvariantsRejectsCorruptedPredictions(t *testing.T) {
	md, w, place := invariantFixture(t)
	base, err := Predict(md, w, place, Options{})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	nan := math.NaN()
	cases := []struct {
		name    string
		corrupt func(p *Prediction)
		wantSub string
	}{
		{"nan time", func(p *Prediction) { p.Time = nan }, "time"},
		{"zero time", func(p *Prediction) { p.Time = 0 }, "time"},
		{"negative speedup", func(p *Prediction) { p.Speedup = -1 }, "speedup"},
		{"speedup beats amdahl", func(p *Prediction) { p.Speedup = p.AmdahlSpeedup * 2; p.Time = w.T1 / p.Speedup }, "Amdahl bound"},
		{"slowdown below one", func(p *Prediction) { p.ResourceSlowdowns[1] = 0.5 }, "below 1"},
		{"sTot below sRes", func(p *Prediction) { p.Slowdowns[0] = p.ResourceSlowdowns[0] / 2 }, "below its resource slowdown"},
		{"negative comm penalty", func(p *Prediction) { p.CommPenalties[2] = -0.5 }, "communication penalty"},
		{"nan load-balance penalty", func(p *Prediction) { p.LoadBalancePenalties[3] = nan }, "load-balance penalty"},
		{"utilisation above one", func(p *Prediction) { p.Utilizations[0] = 1.5 }, "utilisation"},
		{"zero utilisation", func(p *Prediction) { p.Utilizations[2] = 0 }, "utilisation"},
		{"unknown bottleneck", func(p *Prediction) { p.Bottlenecks[0] = topology.ResourceKind(99) }, "bottleneck"},
		{"thread count mismatch", func(p *Prediction) { p.Utilizations = p.Utilizations[:2] }, "len(Utilizations)"},
		{"nan load", func(p *Prediction) {
			p.Loads = map[topology.ResourceID]float64{{Kind: topology.ResDRAM}: nan}
		}, "load"},
		{"load off machine", func(p *Prediction) {
			p.Loads = map[topology.ResourceID]float64{{Kind: topology.ResDRAM, Index: 99}: 1}
		}, "outside machine"},
		{"inconsistent T1", func(p *Prediction) { p.Time *= 2 }, "differs from T1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Shallow-copy the healthy prediction, deep-copying the slices
			// the corruption touches.
			p := *base
			p.Slowdowns = append([]float64(nil), base.Slowdowns...)
			p.ResourceSlowdowns = append([]float64(nil), base.ResourceSlowdowns...)
			p.CommPenalties = append([]float64(nil), base.CommPenalties...)
			p.LoadBalancePenalties = append([]float64(nil), base.LoadBalancePenalties...)
			p.Utilizations = append([]float64(nil), base.Utilizations...)
			p.Bottlenecks = append([]topology.ResourceKind(nil), base.Bottlenecks...)
			tc.corrupt(&p)
			err := CheckInvariants(w, md, &p)
			if err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("corruption %q: error %q does not mention %q", tc.name, err, tc.wantSub)
			}
		})
	}
}

// TestCheckIterationCatchesPoisonedState poisons one class of the solver
// state. The fixture alternates sockets, so threads 1 and 3 form one class
// on socket 1; poisoning it through thread 3 must name thread 1, the class's
// first thread in placement order.
func TestCheckIterationCatchesPoisonedState(t *testing.T) {
	md, w, place := invariantFixture(t)
	e, err := newEngineState(md)
	if err != nil {
		t.Fatalf("newEngineState: %v", err)
	}
	if err := e.bind([]PlacedWorkload{{Workload: w, Placement: place}}, true); err != nil {
		t.Fatalf("bind: %v", err)
	}
	e.iterate(Options{})
	if err := e.checkIteration(0); err != nil {
		t.Fatalf("healthy engine state rejected: %v", err)
	}
	j := e.jobs[0]
	k := j.classOf[3]
	var members []int
	for i, c := range j.classOf {
		if c == k {
			members = append(members, i)
		}
	}
	if len(members) < 2 || members[0] != 1 {
		t.Fatalf("thread 3's class holds threads %v, want several led by thread 1", members)
	}
	j.classes[k].f = math.NaN()
	if err := e.checkIteration(7); err == nil {
		t.Fatal("NaN utilisation not detected")
	} else if !strings.Contains(err.Error(), "iteration 7") {
		t.Fatalf("error %q does not name the iteration", err)
	} else if !strings.Contains(err.Error(), "thread 1 utilisation NaN") {
		t.Fatalf("error %q does not name the poisoned class's first thread", err)
	}
}
