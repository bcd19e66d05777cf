package pandia

import (
	"math"
	"testing"
)

func TestModels(t *testing.T) {
	ms := Models()
	want := map[string]bool{"x5-2": true, "x4-2": true, "x3-2": true, "x2-4": true, "toy": true}
	if len(ms) != len(want) {
		t.Fatalf("Models() = %v", ms)
	}
	for _, m := range ms {
		if !want[m] {
			t.Errorf("unexpected model %q", m)
		}
	}
}

func TestBenchmarksSurface(t *testing.T) {
	if got := len(Benchmarks()); got != 22 {
		t.Errorf("Benchmarks() = %d entries, want 22", got)
	}
	if got := len(AllBenchmarks()); got != 24 {
		t.Errorf("AllBenchmarks() = %d entries, want 24", got)
	}
	if _, err := BenchmarkByName("MD"); err != nil {
		t.Errorf("BenchmarkByName(MD): %v", err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNewSystemUnknown(t *testing.T) {
	if _, err := NewSystem("pdp-11"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestEndToEndOnSmallMachine(t *testing.T) {
	sys, err := NewSystem("x3-2")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine().TotalContexts() != 32 {
		t.Fatalf("machine = %v", sys.Machine())
	}
	if sys.Description() == nil || sys.Testbed() == nil {
		t.Fatal("missing description or testbed")
	}

	b, err := BenchmarkByName("MD")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sys.Profile(b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Workload.T1 <= 0 {
		t.Fatal("profile produced no T1")
	}

	// Predict a specific placement and the same shape; they must agree.
	shape, err := ParseShape("4x1/4x1")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sys.PredictShape(&prof.Workload, shape, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys.Predict(&prof.Workload, shape.Expand(sys.Machine()), PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Speedup != p2.Speedup {
		t.Errorf("shape and placement predictions differ: %g vs %g", p1.Speedup, p2.Speedup)
	}
	if p1.Speedup <= 1 || p1.Speedup > p1.AmdahlSpeedup {
		t.Errorf("8-thread speedup = %g (amdahl %g)", p1.Speedup, p1.AmdahlSpeedup)
	}

	// Measuring the same placement on the testbed lands near the
	// prediction for this well-behaved workload.
	meas, err := sys.Measure(b.Truth, shape.Expand(sys.Machine()))
	if err != nil {
		t.Fatal(err)
	}
	rel := (p1.Time - meas) / meas
	if rel < -0.2 || rel > 0.2 {
		t.Errorf("prediction %.2f vs measurement %.2f (%.0f%% off)", p1.Time, meas, rel*100)
	}
}

func TestRecommend(t *testing.T) {
	sys, err := NewSystem("x3-2")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BenchmarkByName("Swim") // bandwidth-bound: should not want the whole machine
	prof, err := sys.Profile(b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sys.Recommend(&prof.Workload, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BestPrediction == nil || rec.MinimalPrediction == nil {
		t.Fatal("recommendation incomplete")
	}
	if rec.Minimal.Threads() > rec.Best.Threads() {
		t.Errorf("minimal placement (%v) larger than best (%v)", rec.Minimal, rec.Best)
	}
	if rec.MinimalPrediction.Speedup < 0.9*rec.BestPrediction.Speedup-1e-9 {
		t.Errorf("minimal placement misses the target: %g vs %g",
			rec.MinimalPrediction.Speedup, rec.BestPrediction.Speedup)
	}
	// A DRAM-saturating workload on the X3-2 needs well under the full
	// machine to reach 90% of its best (the paper's resource-saving case).
	if rec.Minimal.Threads() > 24 {
		t.Errorf("minimal placement uses %d threads; expected well under the full 32", rec.Minimal.Threads())
	}
	for _, frac := range []float64{1.5, math.NaN(), math.Inf(1)} {
		if _, err := sys.Recommend(&prof.Workload, frac); err == nil {
			t.Errorf("target fraction %g accepted", frac)
		}
	}
}

func TestShapesSampled(t *testing.T) {
	sys, err := NewSystem("toy")
	if err != nil {
		t.Fatal(err)
	}
	all := sys.Shapes(0)
	if len(all) != 20 {
		t.Errorf("toy shapes = %d, want 20", len(all))
	}
	few := sys.Shapes(5)
	if len(few) >= len(all) {
		t.Errorf("sampling did not reduce: %d", len(few))
	}
}

func TestFormatParseShapeFacade(t *testing.T) {
	s, err := ParseShape("2x2/1x1")
	if err != nil {
		t.Fatal(err)
	}
	if FormatShape(s) != "2x2/1x1" {
		t.Errorf("FormatShape = %q", FormatShape(s))
	}
}
