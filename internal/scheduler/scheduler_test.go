package scheduler

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/core"
	"pandia/internal/counters"
	"pandia/internal/machine"
	"pandia/internal/simhw"
	"pandia/internal/topology"
)

func testMD(t testing.TB) *machine.Description {
	t.Helper()
	truth := simhw.X32Truth()
	truth.NoiseSigma = 0
	tb, err := simhw.NewTestbed(truth)
	if err != nil {
		t.Fatal(err)
	}
	md, err := machine.Describe(tb)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

func computeJob(id string) Job {
	return Job{
		ID: id,
		Workload: &core.Workload{
			Name: id, T1: 100,
			Demand:       counters.Rates{Instr: 7, L1: 40},
			ParallelFrac: 0.99, LoadBalance: 0.8, Burstiness: 0.2,
		},
	}
}

func memoryJob(id string) Job {
	return Job{
		ID: id,
		Workload: &core.Workload{
			Name: id, T1: 100,
			Demand:       counters.Rates{Instr: 2, DRAM: 6},
			ParallelFrac: 0.97, LoadBalance: 0.9, Burstiness: 0.1,
			InterSocketOverhead: 0.01,
		},
	}
}

func TestSubmitAndRemove(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := s.Machine().TotalContexts()
	if got := len(s.FreeContexts()); got != total {
		t.Fatalf("fresh scheduler has %d free contexts, want %d", got, total)
	}

	j := computeJob("a")
	j.Threads = 8
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Placement) != 8 {
		t.Fatalf("assignment has %d threads, want 8", len(a.Placement))
	}
	if a.Speedup <= 1 || a.Time <= 0 {
		t.Fatalf("assignment prediction degenerate: speedup %g, time %g", a.Speedup, a.Time)
	}
	if got := len(s.FreeContexts()); got != total-8 {
		t.Fatalf("free contexts = %d, want %d", got, total-8)
	}
	if got := len(s.Assignments()); got != 1 {
		t.Fatalf("assignments = %d", got)
	}

	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.FreeContexts()); got != total {
		t.Fatalf("after removal free = %d, want %d", got, total)
	}
	if err := s.Remove("a"); err == nil {
		t.Fatal("double removal accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Job{}); err == nil {
		t.Error("job without ID accepted")
	}
	if _, err := s.Submit(Job{ID: "x"}); err == nil {
		t.Error("job without workload accepted")
	}
	j := computeJob("a")
	if _, err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(j); err == nil {
		t.Error("duplicate job ID accepted")
	}
	big := computeJob("big")
	big.Threads = 1000
	if _, err := s.Submit(big); err == nil {
		t.Error("oversized job accepted")
	}
}

// TestSubmitAdmissionTable tables malformed job descriptions against
// Submit: every one must be rejected, with an error naming the defect, and
// must leave the scheduler's free-context pool untouched.
func TestSubmitAdmissionTable(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := s.Machine().TotalContexts()
	mutate := func(f func(*core.Workload)) Job {
		j := computeJob("bad")
		f(j.Workload)
		return j
	}
	cases := []struct {
		name string
		job  Job
	}{
		{"zero t1", mutate(func(w *core.Workload) { w.T1 = 0 })},
		{"negative t1", mutate(func(w *core.Workload) { w.T1 = -5 })},
		{"NaN t1", mutate(func(w *core.Workload) { w.T1 = math.NaN() })},
		{"p above 1", mutate(func(w *core.Workload) { w.ParallelFrac = 1.2 })},
		{"negative p", mutate(func(w *core.Workload) { w.ParallelFrac = -0.1 })},
		{"NaN p", mutate(func(w *core.Workload) { w.ParallelFrac = math.NaN() })},
		{"Inf demand", mutate(func(w *core.Workload) { w.Demand.DRAM = math.Inf(1) })},
		{"negative demand", mutate(func(w *core.Workload) { w.Demand.L1 = -3 })},
		{"empty demand", mutate(func(w *core.Workload) { w.Demand = counters.Rates{} })},
		{"negative threads", func() Job { j := computeJob("bad"); j.Threads = -1; return j }()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := s.Submit(c.job); err == nil {
				t.Fatalf("%s admitted", c.name)
			}
			if got := len(s.FreeContexts()); got != total {
				t.Fatalf("rejected job leaked contexts: %d free, want %d", got, total)
			}
		})
	}
	// The same description, intact, is admissible — the table rejects the
	// defects, not the workload.
	if _, err := s.Submit(computeJob("good")); err != nil {
		t.Fatalf("intact job rejected: %v", err)
	}
}

func TestPlacementsNeverOverlap(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[topology.Context]string)
	for i := 0; i < 4; i++ {
		j := memoryJob(fmt.Sprintf("m%d", i))
		j.Threads = 6
		a, err := s.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range a.Placement {
			if owner, dup := seen[c]; dup {
				t.Fatalf("context %v assigned to both %s and %s", c, owner, a.Job.ID)
			}
			seen[c] = a.Job.ID
		}
	}
}

func TestSchedulerSeparatesMemoryJobs(t *testing.T) {
	// Two memory-bound jobs should land on different sockets: stacking
	// them on one socket would halve both jobs' bandwidth.
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Submit(func() Job { j := memoryJob("m1"); j.Threads = 6; return j }())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(func() Job { j := memoryJob("m2"); j.Threads = 6; return j }())
	if err != nil {
		t.Fatal(err)
	}
	s1 := map[int]bool{}
	for _, c := range a1.Placement {
		s1[c.Socket] = true
	}
	overlap := 0
	for _, c := range a2.Placement {
		if s1[c.Socket] {
			overlap++
		}
	}
	if len(s1) == 1 && overlap > 0 {
		t.Errorf("second memory job placed on the first one's socket (%d of %d threads overlap)",
			overlap, len(a2.Placement))
	}
}

func TestAutoThreadCount(t *testing.T) {
	// Without a requested count, a memory-bound job should not grab every
	// free context: beyond DRAM saturation extra threads add nothing.
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit(memoryJob("auto"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.Placement); n < 2 || n >= s.Machine().TotalContexts() {
		t.Errorf("auto-sized memory job got %d threads; want saturation-bounded", n)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, err := New(testMD(t), Config{AdmissionThreshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// First heavy job fits under the threshold at some size.
	if _, err := s.Submit(func() Job { j := memoryJob("m1"); j.Threads = 8; return j }()); err != nil {
		t.Fatal(err)
	}
	// A second identical job on the same machine must be rejected at a
	// size that would over-subscribe both sockets' DRAM.
	_, err = s.Submit(func() Job { j := memoryJob("m2"); j.Threads = 16; return j }())
	if err == nil {
		t.Error("over-subscribing job admitted despite the threshold")
	}
}

func TestPredictRunningMix(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict(); err == nil {
		t.Error("Predict with nothing running succeeded")
	}
	if _, err := s.Submit(func() Job { j := computeJob("c"); j.Threads = 4; return j }()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(func() Job { j := memoryJob("m"); j.Threads = 4; return j }()); err != nil {
		t.Fatal(err)
	}
	co, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Predictions) != 2 {
		t.Fatalf("joint prediction covers %d jobs, want 2", len(co.Predictions))
	}
	for i, p := range co.Predictions {
		if p.Speedup <= 0 {
			t.Errorf("job %d degenerate speedup %g", i, p.Speedup)
		}
	}
}

// TestAssignmentMatchesJointPrediction checks that Submit's admission-time
// Speedup and Time, taken from the winning candidate's score, are bit-equal
// to the full joint prediction of the admission mix: the running jobs in
// job-ID order, then the new job on its chosen placement.
func TestAssignmentMatchesJointPrediction(t *testing.T) {
	defer leaktest.Check(t)()
	for _, cfg := range []Config{{}, {DisablePredictionCache: true}} {
		md := testMD(t)
		s, err := New(md, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// IDs out of order, so the admission mix is not arrival order; the
		// last job picks its own thread count.
		jobs := []Job{computeJob("c2"), memoryJob("m1"), computeJob("a0"), memoryJob("b3")}
		for i := range jobs[:3] {
			jobs[i].Threads = 2 + 2*i
		}
		for _, job := range jobs {
			var mix []core.PlacedWorkload
			for _, r := range s.Assignments() {
				mix = append(mix, core.PlacedWorkload{Workload: r.Job.Workload, Placement: r.Placement})
			}
			a, err := s.Submit(job)
			if err != nil {
				t.Fatal(err)
			}
			mix = append(mix, core.PlacedWorkload{Workload: job.Workload, Placement: a.Placement})
			co, err := core.PredictCoSchedule(md, mix, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := co.Predictions[len(mix)-1]
			if math.Float64bits(a.Speedup) != math.Float64bits(want.Speedup) ||
				math.Float64bits(a.Time) != math.Float64bits(want.Time) {
				t.Errorf("cache off=%v, job %s: assignment speedup %v time %v, joint prediction %v %v",
					cfg.DisablePredictionCache, job.ID, a.Speedup, a.Time, want.Speedup, want.Time)
			}
		}
	}
}

// TestPolicyValuesRejected applies the scenario parser's rule to the API:
// a non-finite or negative policy value is an error from New and from
// Rebalance, not a silently disabled (or inverted) policy.
func TestPolicyValuesRejected(t *testing.T) {
	bad := []struct {
		name string
		v    float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}, {"-1", -1}}
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"AdmissionThreshold", func(c *Config, v float64) { c.AdmissionThreshold = v }},
		{"SlowdownSLO", func(c *Config, v float64) { c.SlowdownSLO = v }},
		{"AdmissionRate", func(c *Config, v float64) { c.AdmissionRate = v }},
		{"AdmissionBurst", func(c *Config, v float64) { c.AdmissionBurst = v }},
	}
	md := testMD(t)
	for _, f := range fields {
		for _, b := range bad {
			t.Run(f.name+"="+b.name, func(t *testing.T) {
				var cfg Config
				f.set(&cfg, b.v)
				if _, err := New(md, cfg); err == nil || !strings.Contains(err.Error(), f.name) {
					t.Fatalf("New with %s %g: error %v, want one naming %s", f.name, b.v, err, f.name)
				}
			})
		}
	}

	s, err := New(md, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(func() Job { j := computeJob("c1"); j.Threads = 4; return j }()); err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Run("minGain="+b.name, func(t *testing.T) {
			if rep, err := s.Rebalance(b.v); err == nil || !strings.Contains(err.Error(), "minGain") {
				t.Fatalf("Rebalance(%g) = %+v, %v; want an error naming minGain", b.v, rep, err)
			}
		})
	}
}
