package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/counters"
	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// toyMachine is the paper's Fig. 3 example: two dual-core sockets, no
// caches, instruction throughput 10 per core, DRAM 100 per socket,
// interconnect 50.
func toyMachine() *machine.Description {
	return &machine.Description{
		Topo:           topology.Toy(),
		CorePeakInstr:  10,
		SMTFactor:      1,
		DRAMBW:         100,
		InterconnectBW: 50,
	}
}

// exampleWorkload is the workload of Fig. 4: d=[7,40], p=0.9, os=0.1,
// l=0.5, b=0.5, t1=1000s.
func exampleWorkload() *Workload {
	return &Workload{
		Name:                "example",
		T1:                  1000,
		Demand:              counters.Rates{Instr: 7, DRAM: 40},
		ParallelFrac:        0.9,
		InterSocketOverhead: 0.1,
		LoadBalance:         0.5,
		Burstiness:          0.5,
	}
}

// workedExamplePlacement is Fig. 7: U and V share core 0 of socket 0,
// W runs alone on socket 1.
func workedExamplePlacement() placement.Placement {
	return placement.Placement{
		{Socket: 0, Core: 0, Slot: 0},
		{Socket: 0, Core: 0, Slot: 1},
		{Socket: 1, Core: 0, Slot: 0},
	}
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f (±%g)", name, got, want, tol)
	}
}

// TestWorkedExampleFirstIteration walks the first iteration of Fig. 7 and
// checks the intermediate values the paper prints.
func TestWorkedExampleFirstIteration(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	place := workedExamplePlacement()

	pred, err := Predict(md, w, place, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 7c: resource slowdowns 2.83, 2.83, 2.00 (interconnect 100/50
	// for everyone; U and V add burstiness 2.00*0.5*0.83).
	approx(t, "sRes[U]", pred.ResourceSlowdowns[0], 2.83, 0.01)
	approx(t, "sRes[V]", pred.ResourceSlowdowns[1], 2.83, 0.01)
	approx(t, "sRes[W]", pred.ResourceSlowdowns[2], 2.00, 0.01)

	// Fig. 7e: overall slowdowns 2.87, 2.87, 2.48 after communication and
	// load balancing.
	approx(t, "sTot[U]", pred.Slowdowns[0], 2.87, 0.01)
	approx(t, "sTot[V]", pred.Slowdowns[1], 2.87, 0.01)
	approx(t, "sTot[W]", pred.Slowdowns[2], 2.48, 0.01)

	// Fig. 9a: utilisations fed into iteration 2: 0.82, 0.82, 0.67.
	approx(t, "f[U]", pred.Utilizations[0], 0.82, 0.01)
	approx(t, "f[V]", pred.Utilizations[1], 0.82, 0.01)
	approx(t, "f[W]", pred.Utilizations[2], 0.67, 0.01)

	// All three threads bottleneck on the interconnect.
	for i, k := range pred.Bottlenecks {
		if k != topology.ResInterconnect {
			t.Errorf("thread %d bottleneck = %v, want interconnect", i, k)
		}
	}
	if pred.AmdahlSpeedup != 2.5 {
		t.Errorf("Amdahl speedup = %g, want 2.5", pred.AmdahlSpeedup)
	}
}

// TestWorkedExampleConverged checks the paper's final result: predicted
// speedup 1.005 ("extremely poor performance ... the inter-socket link
// being almost completely saturated by a single thread", §5.5).
func TestWorkedExampleConverged(t *testing.T) {
	pred, err := Predict(toyMachine(), exampleWorkload(), workedExamplePlacement(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Converged {
		t.Errorf("prediction did not converge in %d iterations", pred.Iterations)
	}
	approx(t, "speedup", pred.Speedup, 1.005, 0.05)
	approx(t, "time", pred.Time, 1000/1.005, 50)
}

func TestSingleThreadPrediction(t *testing.T) {
	pred, err := Predict(toyMachine(), exampleWorkload(),
		placement.Placement{{Socket: 0, Core: 0, Slot: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "solo speedup", pred.Speedup, 1.0, 1e-9)
	approx(t, "solo time", pred.Time, 1000, 1e-6)
	if pred.Slowdowns[0] != 1 {
		t.Errorf("solo slowdown = %g, want 1", pred.Slowdowns[0])
	}
}

func TestTwoThreadsOneSocketIsAmdahl(t *testing.T) {
	// Uncontended placement: prediction equals Amdahl's law (paper run 2:
	// 550 s).
	pred, err := Predict(toyMachine(), exampleWorkload(), placement.Placement{
		{Socket: 0, Core: 0, Slot: 0},
		{Socket: 0, Core: 1, Slot: 0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "2-thread time", pred.Time, 550, 0.5)
}

func TestPredictValidation(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	good := placement.Placement{{Socket: 0, Core: 0, Slot: 0}}

	if _, err := Predict(md, w, placement.Placement{}, Options{}); err == nil {
		t.Error("empty placement accepted")
	}
	bad := *w
	bad.T1 = -1
	if _, err := Predict(md, &bad, good, Options{}); err == nil {
		t.Error("invalid workload accepted")
	}
	badMD := *md
	badMD.CorePeakInstr = 0
	if _, err := Predict(&badMD, w, good, Options{}); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := Predict(md, w, placement.Placement{{Socket: 9, Core: 0, Slot: 0}}, Options{}); err == nil {
		t.Error("off-machine placement accepted")
	}
}

func TestSpeedupBoundedByAmdahl(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	for _, shape := range placement.Enumerate(md.Topo) {
		place := shape.Expand(md.Topo)
		pred, err := Predict(md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pred.Speedup > pred.AmdahlSpeedup+1e-9 {
			t.Errorf("%v: speedup %g exceeds Amdahl %g", shape, pred.Speedup, pred.AmdahlSpeedup)
		}
		for i, s := range pred.Slowdowns {
			if s < 1-1e-9 {
				t.Errorf("%v: thread %d slowdown %g below 1", shape, i, s)
			}
		}
		for _, f := range pred.Utilizations {
			if f <= 0 || f > 1+1e-9 {
				t.Errorf("%v: utilisation %g outside (0,1]", shape, f)
			}
		}
	}
}

func TestSymmetryInvariance(t *testing.T) {
	// Placements that differ only by socket or core renaming predict
	// identically.
	md := toyMachine()
	w := exampleWorkload()
	a := placement.Placement{{Socket: 0, Core: 0, Slot: 0}, {Socket: 1, Core: 1, Slot: 0}}
	b := placement.Placement{{Socket: 1, Core: 0, Slot: 0}, {Socket: 0, Core: 1, Slot: 0}}
	pa, err := Predict(md, w, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Predict(md, w, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "symmetric speedup", pa.Speedup, pb.Speedup, 1e-9)
}

func TestThreadOrderInvariance(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	a := workedExamplePlacement()
	b := placement.Placement{a[2], a[0], a[1]}
	pa, _ := Predict(md, w, a, Options{})
	pb, _ := Predict(md, w, b, Options{})
	approx(t, "permuted speedup", pa.Speedup, pb.Speedup, 1e-9)
}

func TestAblationFlags(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	place := workedExamplePlacement()

	full, err := Predict(md, w, place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noBurst, err := Predict(md, w, place, Options{DisableBurstiness: true})
	if err != nil {
		t.Fatal(err)
	}
	if noBurst.Speedup <= full.Speedup {
		t.Errorf("disabling burstiness did not raise the prediction: %g vs %g", noBurst.Speedup, full.Speedup)
	}
	// Communication ablation is checked on an uncontended cross-socket
	// placement: under saturation the penalty's feedback on loads can cut
	// either way, but with free resources disabling it must predict faster.
	light := *w
	light.Demand = counters.Rates{Instr: 2, DRAM: 5}
	splitPlace := placement.Placement{{Socket: 0, Core: 0, Slot: 0}, {Socket: 1, Core: 0, Slot: 0}}
	withComm, err := Predict(md, &light, splitPlace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noComm, err := Predict(md, &light, splitPlace, Options{DisableComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if noComm.Speedup <= withComm.Speedup {
		t.Errorf("disabling comm did not raise the prediction: %g vs %g", noComm.Speedup, withComm.Speedup)
	}
	noLB, err := Predict(md, w, place, Options{DisableLoadBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	if noLB.Speedup <= full.Speedup {
		t.Errorf("disabling load balancing did not raise the prediction: %g vs %g", noLB.Speedup, full.Speedup)
	}
}

func TestLoadsExported(t *testing.T) {
	pred, err := Predict(toyMachine(), exampleWorkload(), workedExamplePlacement(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ic := topology.ResourceID{Kind: topology.ResInterconnect, Pair: topology.SocketPair{Lo: 0, Hi: 1}}
	load, ok := pred.Loads[ic]
	if !ok {
		t.Fatal("no interconnect load exported")
	}
	// The converged state keeps the link around saturation (cap 50).
	if load < 40 || load > 110 {
		t.Errorf("interconnect load = %g, want near saturation", load)
	}
	for id, v := range pred.Loads {
		if v <= 0 {
			t.Errorf("non-positive load exported for %v", id)
		}
	}
}

func TestAmdahl(t *testing.T) {
	if got := Amdahl(1, 4); got != 4 {
		t.Errorf("Amdahl(1,4) = %g", got)
	}
	if got := Amdahl(0, 16); got != 1 {
		t.Errorf("Amdahl(0,16) = %g", got)
	}
	if got := Amdahl(0.9, 1); got != 1 {
		t.Errorf("Amdahl(0.9,1) = %g", got)
	}
	approx(t, "Amdahl(0.9,3)", Amdahl(0.9, 3), 2.5, 1e-12)
}

func TestWorkloadValidate(t *testing.T) {
	good := exampleWorkload()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Workload){
		"zero t1":  func(w *Workload) { w.T1 = 0 },
		"bad p":    func(w *Workload) { w.ParallelFrac = -0.1 },
		"bad l":    func(w *Workload) { w.LoadBalance = 1.1 },
		"neg b":    func(w *Workload) { w.Burstiness = -1 },
		"neg os":   func(w *Workload) { w.InterSocketOverhead = -0.5 },
		"neg dmnd": func(w *Workload) { w.Demand.Instr = -1 },
	} {
		w := *good
		mutate(&w)
		if w.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWorkloadSaveLoad(t *testing.T) {
	w := exampleWorkload()
	path := filepath.Join(t.TempDir(), "w.json")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *w {
		t.Errorf("round trip mismatch: %+v vs %+v", back, w)
	}
	if _, err := LoadWorkload(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDampeningTerminates(t *testing.T) {
	// Force a tiny iteration budget with dampening from the start; the
	// predictor must still return a bounded, sane prediction.
	pred, err := Predict(toyMachine(), exampleWorkload(), workedExamplePlacement(),
		Options{MaxIterations: 500, DampenAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Converged {
		t.Error("dampened prediction did not converge")
	}
	if pred.Speedup < 0.5 || pred.Speedup > 2.5 {
		t.Errorf("dampened speedup = %g out of bounds", pred.Speedup)
	}
}

func TestPenaltyBreakdownMatchesWorkedExample(t *testing.T) {
	// The Fig. 7 first-iteration rows: communication penalties 0.03, 0.03,
	// 0.08 and load-balance penalty 0.40 on W.
	pred, err := Predict(toyMachine(), exampleWorkload(), workedExamplePlacement(), Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "comm[U]", pred.CommPenalties[0], 0.03, 0.01)
	approx(t, "comm[V]", pred.CommPenalties[1], 0.03, 0.01)
	approx(t, "comm[W]", pred.CommPenalties[2], 0.08, 0.01)
	approx(t, "lb[U]", pred.LoadBalancePenalties[0], 0.00, 0.01)
	approx(t, "lb[W]", pred.LoadBalancePenalties[2], 0.40, 0.01)
}

func TestExplainRendering(t *testing.T) {
	place := workedExamplePlacement()
	pred, err := Predict(toyMachine(), exampleWorkload(), place, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(pred, place)
	for _, want := range []string{"bottleneck", "interconnect", "Amdahl speedup", "s1/c0/t0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != len(place)+2 {
		t.Errorf("Explain has %d lines, want %d", lines, len(place)+2)
	}
}
