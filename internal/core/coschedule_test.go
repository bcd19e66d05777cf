package core

import (
	"math"
	"testing"

	"pandia/internal/counters"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

func lightWorkload(name string) *Workload {
	return &Workload{
		Name:         name,
		T1:           100,
		Demand:       counters.Rates{Instr: 2, DRAM: 5},
		ParallelFrac: 0.95,
		LoadBalance:  0.8,
	}
}

func TestCoScheduleSingleMatchesPredict(t *testing.T) {
	// A co-schedule of one workload must agree exactly with Predict.
	md := toyMachine()
	w := exampleWorkload()
	place := workedExamplePlacement()
	solo, err := Predict(md, w, place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := PredictCoSchedule(md, []PlacedWorkload{{Workload: w, Placement: place}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := co.Predictions[0].Speedup; got != solo.Speedup {
		t.Errorf("co-schedule of one = %g, Predict = %g", got, solo.Speedup)
	}
}

func TestCoScheduleInterference(t *testing.T) {
	// Two DRAM-hungry workloads on one socket slow each other; the same
	// pair split across sockets does not.
	md := toyMachine()
	a := exampleWorkload()
	a.Name = "A"
	b := exampleWorkload()
	b.Name = "B"

	sameSocket := []PlacedWorkload{
		{Workload: a, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: b, Placement: placement.Placement{{Socket: 0, Core: 1, Slot: 0}}},
	}
	splitSockets := []PlacedWorkload{
		{Workload: a, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: b, Placement: placement.Placement{{Socket: 1, Core: 0, Slot: 0}}},
	}
	same, err := PredictCoSchedule(md, sameSocket, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split, err := PredictCoSchedule(md, splitSockets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same socket: both demand 40 on one 100-capacity DRAM link: fits.
	// But two single threads of demand 40 each... loads 80 < 100: no
	// contention either way for DRAM; use a heavier pair to see it.
	_ = same

	heavyA := exampleWorkload()
	heavyA.Name = "heavyA"
	heavyA.Demand.DRAM = 70
	heavyB := exampleWorkload()
	heavyB.Name = "heavyB"
	heavyB.Demand.DRAM = 70
	heavy := []PlacedWorkload{
		{Workload: heavyA, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: heavyB, Placement: placement.Placement{{Socket: 0, Core: 1, Slot: 0}}},
	}
	co, err := PredictCoSchedule(md, heavy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	soloA, err := Predict(md, heavyA, heavy[0].Placement, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(co.Predictions[0].Time > soloA.Time*1.2) {
		t.Errorf("co-located DRAM hogs not slowed: co %g vs solo %g", co.Predictions[0].Time, soloA.Time)
	}
	if co.WorstOversubscription <= 1 {
		t.Errorf("worst over-subscription = %g, want > 1", co.WorstOversubscription)
	}
	if co.WorstResource.Kind != topology.ResDRAM {
		t.Errorf("worst resource = %v, want DRAM", co.WorstResource)
	}
	slow, err := co.Slowdown(md, heavy, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slow <= 1.2 {
		t.Errorf("Slowdown() = %g, want > 1.2", slow)
	}
	// An index outside the mix, or a placed set that is not the predicted
	// one, is an error rather than a panic.
	for _, tc := range []struct {
		placed []PlacedWorkload
		i      int
	}{
		{heavy, -1},
		{heavy, len(heavy)},
		{heavy[:1], 1},
		{heavy[:1], 0},
		{append(heavy[:len(heavy):len(heavy)], heavy[0]), len(heavy)},
	} {
		if _, err := co.Slowdown(md, tc.placed, tc.i, Options{}); err == nil {
			t.Errorf("Slowdown(%d of %d placed) over %d predictions: no error", tc.i, len(tc.placed), len(co.Predictions))
		}
	}

	// The split placement keeps both at full speed.
	if split.WorstOversubscription > 1 {
		t.Errorf("split placement over-subscribed: %g", split.WorstOversubscription)
	}
}

func TestCoScheduleSMTSharing(t *testing.T) {
	// Two compute-bound workloads sharing one core split its SMT
	// throughput; the same pair on separate cores does not.
	md := toyMachine()
	a := lightWorkload("ca")
	a.Demand = counters.Rates{Instr: 9}
	b := lightWorkload("cb")
	b.Demand = counters.Rates{Instr: 9}

	shared, err := PredictCoSchedule(md, []PlacedWorkload{
		{Workload: a, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: b, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 1}}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	apart, err := PredictCoSchedule(md, []PlacedWorkload{
		{Workload: a, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: b, Placement: placement.Placement{{Socket: 0, Core: 1, Slot: 0}}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(shared.Predictions[0].Time > apart.Predictions[0].Time*1.3) {
		t.Errorf("core sharing barely slowed compute-bound pair: %g vs %g",
			shared.Predictions[0].Time, apart.Predictions[0].Time)
	}
}

func TestCoScheduleValidation(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	if _, err := PredictCoSchedule(md, nil, Options{}); err == nil {
		t.Error("empty job list accepted")
	}
	overlap := []PlacedWorkload{
		{Workload: w, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: w, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
	}
	if _, err := PredictCoSchedule(md, overlap, Options{}); err == nil {
		t.Error("overlapping placements accepted")
	}
	if _, err := PredictCoSchedule(md, []PlacedWorkload{{Workload: nil}}, Options{}); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestCoScheduleLoadsAreCombined(t *testing.T) {
	md := toyMachine()
	a := lightWorkload("la")
	b := lightWorkload("lb")
	co, err := PredictCoSchedule(md, []PlacedWorkload{
		{Workload: a, Placement: placement.Placement{{Socket: 0, Core: 0, Slot: 0}}},
		{Workload: b, Placement: placement.Placement{{Socket: 0, Core: 1, Slot: 0}}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dram := topology.ResourceID{Kind: topology.ResDRAM, Index: 0}
	load := co.Loads[dram]
	// Both workloads demand 5 DRAM at utilisation ~fInit; combined load
	// must be roughly both demands together.
	if load < 7 || load > 10.5 {
		t.Errorf("combined DRAM load = %g, want about 2 x 5 x f", load)
	}
	if math.Abs(co.Predictions[0].Speedup-co.Predictions[1].Speedup) > 1e-9 {
		t.Errorf("identical twin workloads predicted differently: %g vs %g",
			co.Predictions[0].Speedup, co.Predictions[1].Speedup)
	}
}
