// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6), plus the ablation benches called out in
// DESIGN.md and micro-benchmarks of the core components.
//
// Figure benchmarks run reduced configurations (placement-sample caps,
// workload subsets) so `go test -bench=.` completes in minutes; the full
// evaluation is `go run ./cmd/pandia-eval`. Each benchmark reports the
// relevant headline number as a custom metric (median error %, gap %, cost
// ratio) so the paper's rows are visible straight from the bench output.
package pandia

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"pandia/internal/bench"
	"pandia/internal/core"
	"pandia/internal/eval"
	"pandia/internal/faults"
	"pandia/internal/placement"
	"pandia/internal/scheduler"
	"pandia/internal/simhw"
	"pandia/internal/workload"
)

// benchHarness caches eval harnesses across benchmarks: building one
// involves stress runs and placement enumeration that would otherwise
// dominate every measurement.
var (
	benchMu       sync.Mutex
	benchHarness  = map[string]*eval.Harness{}
	benchCapByKey = map[string]int{"x5-2": 400, "x4-2": 300, "x3-2": 300, "x2-4": 300}
)

func harnessFor(b *testing.B, key string) *eval.Harness {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if h, ok := benchHarness[key]; ok {
		return h
	}
	h, err := eval.NewHarness(key, benchCapByKey[key], 1)
	if err != nil {
		b.Fatal(err)
	}
	benchHarness[key] = h
	return h
}

func entriesNamed(b *testing.B, names ...string) []bench.Entry {
	b.Helper()
	out := make([]bench.Entry, 0, len(names))
	for _, n := range names {
		e, err := bench.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// BenchmarkFig01MDCurve regenerates Fig. 1: MD's measured-vs-predicted
// placement curve on the X5-2. CurveWith re-predicts the curve every
// iteration (CurveFor would serve the harness's memoized one); the profile
// and the measurements are memoized.
func BenchmarkFig01MDCurve(b *testing.B) {
	h := harnessFor(b, "x5-2")
	e := entriesNamed(b, "MD")[0]
	prof, err := h.Profile(e)
	if err != nil {
		b.Fatal(err)
	}
	var med float64
	for i := 0; i < b.N; i++ {
		c, err := h.CurveWith(e, &prof.Workload, prof.Cost)
		if err != nil {
			b.Fatal(err)
		}
		med = c.Metrics().MedianErr
	}
	b.ReportMetric(med, "median-err-%")
}

// BenchmarkFig10Curves regenerates a representative slice of Fig. 10 (one
// workload per suite) on the X5-2, predicting each curve cold as
// BenchmarkFig01MDCurve does.
func BenchmarkFig10Curves(b *testing.B) {
	h := harnessFor(b, "x5-2")
	entries := entriesNamed(b, "CG", "Swim", "NPO", "PageRank")
	profs := make([]*workload.Profile, len(entries))
	for i, e := range entries {
		var err error
		if profs[i], err = h.Profile(e); err != nil {
			b.Fatal(err)
		}
	}
	var med float64
	for i := 0; i < b.N; i++ {
		var meds []float64
		for j, e := range entries {
			c, err := h.CurveWith(e, &profs[j].Workload, profs[j].Cost)
			if err != nil {
				b.Fatal(err)
			}
			meds = append(meds, c.Metrics().MedianErr)
		}
		med = meds[len(meds)/2]
	}
	b.ReportMetric(med, "median-err-%")
}

// BenchmarkFig11aErrorsX52 regenerates Fig. 11a's error summary on the
// X5-2 (workload subset).
func BenchmarkFig11aErrorsX52(b *testing.B) {
	benchErrors(b, "x5-2")
}

// BenchmarkFig11bErrorsX32 regenerates Fig. 11b on the X3-2.
func BenchmarkFig11bErrorsX32(b *testing.B) {
	benchErrors(b, "x3-2")
}

func benchErrors(b *testing.B, key string) {
	h := harnessFor(b, key)
	entries := entriesNamed(b, "BT", "CG", "EP", "MG", "NPO", "Wupwise")
	var s *eval.Summary
	for i := 0; i < b.N; i++ {
		var err error
		s, err = eval.ErrorSummary(h, entries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.MedianErr, "median-err-%")
	b.ReportMetric(s.MedianOffsetErr, "median-offset-err-%")
}

// BenchmarkFig11cPortability uses X3-2 workload descriptions on the X5-2.
func BenchmarkFig11cPortability(b *testing.B) {
	benchPortability(b, "x3-2", "x5-2")
}

// BenchmarkFig11dPortability uses X5-2 workload descriptions on the X3-2.
func BenchmarkFig11dPortability(b *testing.B) {
	benchPortability(b, "x5-2", "x3-2")
}

func benchPortability(b *testing.B, src, dst string) {
	hs := harnessFor(b, src)
	hd := harnessFor(b, dst)
	entries := entriesNamed(b, "MD", "CG", "Swim")
	var s *eval.Summary
	for i := 0; i < b.N; i++ {
		var err error
		s, err = eval.Portability(hs, hd, entries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.MedianErr, "median-err-%")
}

// BenchmarkFig12FourSocket regenerates Fig. 12's placement classes on the
// 4-socket X2-4.
func BenchmarkFig12FourSocket(b *testing.B) {
	h := harnessFor(b, "x2-4")
	entries := entriesNamed(b, "CG", "LU", "PageRank")
	var rows []eval.FourSocketRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.FourSocket(h, entries)
		if err != nil {
			b.Fatal(err)
		}
	}
	var whole float64
	for _, r := range rows {
		whole += r.Whole
	}
	b.ReportMetric(whole/float64(len(rows)), "mean-whole-machine-err-%")
}

// BenchmarkFig13aNPOSingle regenerates Fig. 13a: the non-scaling NPO.
func BenchmarkFig13aNPOSingle(b *testing.B) {
	h := harnessFor(b, "x5-2")
	e := bench.NPOSingle()
	var med float64
	for i := 0; i < b.N; i++ {
		c, err := h.CurveFor(e)
		if err != nil {
			b.Fatal(err)
		}
		med = c.Metrics().MedianErr
	}
	b.ReportMetric(med, "median-err-%")
}

// BenchmarkFig13Equake regenerates Fig. 13b-c: equake's broken assumption
// on the small and large machines; the error difference is the headline.
func BenchmarkFig13Equake(b *testing.B) {
	small := harnessFor(b, "x3-2")
	large := harnessFor(b, "x5-2")
	e := bench.Equake()
	var errSmall, errLarge float64
	for i := 0; i < b.N; i++ {
		cs, err := small.CurveFor(e)
		if err != nil {
			b.Fatal(err)
		}
		cl, err := large.CurveFor(e)
		if err != nil {
			b.Fatal(err)
		}
		errSmall = cs.Metrics().MedianErr
		errLarge = cl.Metrics().MedianErr
	}
	b.ReportMetric(errSmall, "x32-median-err-%")
	b.ReportMetric(errLarge, "x52-median-err-%")
}

// BenchmarkFig14Turbo regenerates the Turbo Boost study.
func BenchmarkFig14Turbo(b *testing.B) {
	h := harnessFor(b, "x5-2")
	var tc *eval.TurboCurves
	for i := 0; i < b.N; i++ {
		var err error
		tc, err = eval.TurboStudy(h.TB)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tc.TurboIdle[0].PerThreadRate/tc.Nominal[0].PerThreadRate, "solo-turbo-boost-x")
}

// BenchmarkTableBestPlacement regenerates the §6.1 best-placement gap.
func BenchmarkTableBestPlacement(b *testing.B) {
	h := harnessFor(b, "x3-2")
	entries := entriesNamed(b, "MD", "CG", "Swim", "NPO")
	var s *eval.Summary
	for i := 0; i < b.N; i++ {
		var err error
		s, err = eval.ErrorSummary(h, entries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.MedianBestGap, "median-best-gap-%")
}

// BenchmarkTablePeakThreads regenerates the §6.1 peak-thread-usage numbers.
func BenchmarkTablePeakThreads(b *testing.B) {
	h := harnessFor(b, "x5-2")
	entries := entriesNamed(b, "MD", "Swim", "EP", "Sort-Join")
	var s *eval.Summary
	for i := 0; i < b.N; i++ {
		var err error
		s, err = eval.ErrorSummary(h, entries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*s.FracPeakBelowMax, "peak-below-max-%")
}

// BenchmarkTableSweep regenerates the §6.3 sweep-baseline comparison.
func BenchmarkTableSweep(b *testing.B) {
	h := harnessFor(b, "x3-2")
	entries := entriesNamed(b, "MD", "Swim")
	var s *eval.SweepSummary
	for i := 0; i < b.N; i++ {
		var err error
		s, err = eval.SweepStudy(h, entries)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.MeanCostRatio, "sweep-cost-ratio-x")
}

// BenchmarkNoiseResilience runs the robustness study: fault-injected
// profiling at a 10% base rate, hardened pipeline versus naive single-shot.
// The headline metrics are the two degradation factors over the fault-free
// baseline error.
func BenchmarkNoiseResilience(b *testing.B) {
	h := harnessFor(b, "x3-2")
	entries := entriesNamed(b, "MD", "CG")
	var n *eval.NoiseResult
	for i := 0; i < b.N; i++ {
		var err error
		n, err = eval.NoiseResilience(h, entries, []float64{0.1}, faults.RobustDefaults(), 2, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(n.Points[0].NaiveMeanErr/n.BaselineErr, "naive-degradation-x")
	b.ReportMetric(n.Points[0].RobustMeanErr/n.BaselineErr, "robust-degradation-x")
}

// ablationMedian computes the median error of one workload's curve with the
// given predictor options.
func ablationMedian(b *testing.B, h *eval.Harness, e bench.Entry, opt core.Options) float64 {
	b.Helper()
	prof, err := h.Profile(e)
	if err != nil {
		b.Fatal(err)
	}
	meas, err := h.MeasureAll(e)
	if err != nil {
		b.Fatal(err)
	}
	topo := h.TB.Machine()
	pred := make([]float64, len(h.Shapes))
	for i, s := range h.Shapes {
		p, err := core.Predict(h.MD, &prof.Workload, s.Expand(topo), opt)
		if err != nil {
			b.Fatal(err)
		}
		pred[i] = p.Time
	}
	return eval.ComputeMetrics(meas, pred).MedianErr
}

// BenchmarkAblationIterations compares the full iterative prediction with a
// single-pass prediction (DESIGN.md ablation 1).
func BenchmarkAblationIterations(b *testing.B) {
	benchAblation(b, core.Options{SinglePass: true}, "single-pass-median-err-%")
}

// BenchmarkAblationLoadBalance drops the load-balancing penalty.
func BenchmarkAblationLoadBalance(b *testing.B) {
	benchAblation(b, core.Options{DisableLoadBalance: true}, "no-lb-median-err-%")
}

// BenchmarkAblationBurstiness drops the core-sharing burstiness term.
func BenchmarkAblationBurstiness(b *testing.B) {
	benchAblation(b, core.Options{DisableBurstiness: true}, "no-burst-median-err-%")
}

// BenchmarkAblationComm drops the inter-socket communication penalty.
func BenchmarkAblationComm(b *testing.B) {
	benchAblation(b, core.Options{DisableComm: true}, "no-comm-median-err-%")
}

func benchAblation(b *testing.B, opt core.Options, metric string) {
	h := harnessFor(b, "x3-2")
	e := entriesNamed(b, "Swim")[0]
	var full, ablated float64
	for i := 0; i < b.N; i++ {
		full = ablationMedian(b, h, e, core.Options{})
		ablated = ablationMedian(b, h, e, opt)
	}
	b.ReportMetric(full, "full-median-err-%")
	b.ReportMetric(ablated, metric)
}

// BenchmarkPredictOnce measures one predictor invocation on a full-machine
// placement (the paper: "a fraction of a second per placement"; here
// microseconds).
func BenchmarkPredictOnce(b *testing.B) {
	h := harnessFor(b, "x5-2")
	e := entriesNamed(b, "CG")[0]
	prof, err := h.Profile(e)
	if err != nil {
		b.Fatal(err)
	}
	place, err := placement.Spread(h.TB.Machine(), h.TB.Machine().TotalContexts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Predict(h.MD, &prof.Workload, place, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorReuse measures the steady-state fast path: one pooled
// Predictor re-predicting a full-machine placement, as every sweep worker
// does in its hot loop. The allocation report should read 0 allocs/op.
func BenchmarkPredictorReuse(b *testing.B) {
	h := harnessFor(b, "x5-2")
	e := entriesNamed(b, "CG")[0]
	prof, err := h.Profile(e)
	if err != nil {
		b.Fatal(err)
	}
	place, err := placement.Spread(h.TB.Machine(), h.TB.Machine().TotalContexts())
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewPredictor(h.MD, &prof.Workload, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.PredictTime(place); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictTime(place); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictSweep measures the batched fast-path sweep over the
// harness's whole evaluation placement set (the §6.3 scenario: thousands of
// candidate placements per workload).
func BenchmarkPredictSweep(b *testing.B) {
	h := harnessFor(b, "x5-2")
	e := entriesNamed(b, "CG")[0]
	prof, err := h.Profile(e)
	if err != nil {
		b.Fatal(err)
	}
	places := h.Placements()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PredictSweep(h.MD, &prof.Workload, places, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(places)), "placements")
}

// BenchmarkSweepPruned measures the Recommend-style pruned sweep over the
// harness's whole evaluation placement set at the default target fraction:
// placements whose Amdahl bound cannot reach 95% of the incumbent are
// skipped without solving.
func BenchmarkSweepPruned(b *testing.B) {
	h := harnessFor(b, "x5-2")
	e := entriesNamed(b, "CG")[0]
	prof, err := h.Profile(e)
	if err != nil {
		b.Fatal(err)
	}
	places := h.Placements()
	var stats core.SweepStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := core.PredictSweepPruned(h.MD, &prof.Workload, places, core.Options{}, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		stats = st
	}
	b.ReportMetric(float64(len(places)), "placements")
	b.ReportMetric(100*stats.PruneRate(), "prune-rate-%")
}

// BenchmarkRecommend measures the placement-advice rung end to end on the
// X5-2: Recommend's pruned sweep over the canonical shapes at target
// fraction 0.95, then the full predictions of the two chosen shapes. It
// reports the swept placement count and the share the dominance bound
// skipped.
func BenchmarkRecommend(b *testing.B) {
	sys, err := NewSystem("x5-2")
	if err != nil {
		b.Fatal(err)
	}
	cg, err := BenchmarkByName("CG")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sys.Profile(cg.Truth)
	if err != nil {
		b.Fatal(err)
	}
	var rec *Recommendation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec, err = sys.Recommend(&prof.Workload, 0.95); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rec.Sweep.Evaluated+rec.Sweep.Pruned), "placements")
	b.ReportMetric(100*rec.Sweep.PruneRate(), "prune-rate-%")
}

// BenchmarkTestbedRun measures one ground-truth simulation run.
func BenchmarkTestbedRun(b *testing.B) {
	h := harnessFor(b, "x5-2")
	e := entriesNamed(b, "CG")[0]
	place, err := placement.Spread(h.TB.Machine(), h.TB.Machine().TotalContexts())
	if err != nil {
		b.Fatal(err)
	}
	cfg := simhw.RunConfig{Workload: e.Truth, Placement: place}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.TB.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureAll measures one ground-truth curve, the testbed rung of
// the benchmark ladder: CG run on every one of the X3-2's 1034 canonical
// shapes through Harness.MeasureAll, as the evaluation (and the reproduce
// benchmark workload) does per workload. Each iteration measures under a
// new cache key, so the harness's measurement cache never serves it.
func BenchmarkMeasureAll(b *testing.B) {
	h, err := eval.NewHarness("x3-2", eval.DefaultMaxPlacements("x3-2"), 1)
	if err != nil {
		b.Fatal(err)
	}
	if len(h.Shapes) != 1034 {
		b.Fatalf("x3-2 harness has %d shapes, want 1034", len(h.Shapes))
	}
	e := entriesNamed(b, "CG")[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := e
		fresh.Name = e.Name + "#" + strconv.Itoa(i)
		if _, err := h.MeasureAll(fresh); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(h.Shapes)), "runs")
}

// BenchmarkProfileSixRuns measures the six-run workload profiling pipeline.
func BenchmarkProfileSixRuns(b *testing.B) {
	h := harnessFor(b, "x3-2")
	e := entriesNamed(b, "CG")[0]
	p := &workload.Profiler{TB: h.TB, MD: h.MD}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Profile(e.Truth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumeratePlacements measures canonical placement enumeration for
// the largest 2-socket machine.
func BenchmarkEnumeratePlacements(b *testing.B) {
	h := harnessFor(b, "x5-2")
	topo := h.TB.Machine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := placement.Enumerate(topo); len(got) != 18144 {
			b.Fatalf("enumerated %d shapes", len(got))
		}
	}
}

// zooWorkloads profiles every zoo workload on the key harness (memoized
// there), in zoo order.
func zooWorkloads(b *testing.B, h *eval.Harness) []*core.Workload {
	b.Helper()
	var ws []*core.Workload
	for _, e := range bench.Zoo() {
		prof, err := h.Profile(e)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, &prof.Workload)
	}
	return ws
}

// benchScheduler builds a scheduler on the X5-2 with running two-thread zoo
// jobs already admitted, the scheduler rung of the benchmark ladder.
func benchScheduler(b *testing.B, running int, cache bool) (*scheduler.Scheduler, []*core.Workload) {
	b.Helper()
	h := harnessFor(b, "x5-2")
	ws := zooWorkloads(b, h)
	s, err := scheduler.New(h.MD, scheduler.Config{DisablePredictionCache: !cache})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < running; i++ {
		job := scheduler.Job{ID: fmt.Sprintf("bg%02d", i), Workload: ws[i%len(ws)], Threads: 2}
		if _, err := s.Submit(job); err != nil {
			b.Fatal(err)
		}
	}
	return s, ws
}

// BenchmarkSubmit measures one admission, the scheduler's hot operation:
// a job that lets the scheduler pick its thread count is submitted over 0,
// 4 and 16 running jobs and removed again. With the cache on, the repeated
// mixes hit CoCache after the first iteration; with it off, every
// candidate is a score-only joint solve. One untimed admission first fills
// the cache and the scheduler's scratch, so allocs/op is the steady state
// whatever b.N is, and make bench-gate can hold it to the recorded value.
func BenchmarkSubmit(b *testing.B) {
	for _, running := range []int{0, 4, 16} {
		for _, cache := range []bool{true, false} {
			name := fmt.Sprintf("running=%d/cache=%v", running, cache)
			b.Run(name, func(b *testing.B) {
				s, ws := benchScheduler(b, running, cache)
				job := scheduler.Job{ID: "new", Workload: ws[1]}
				submit := func() {
					if _, err := s.Submit(job); err != nil {
						b.Fatal(err)
					}
					if err := s.Remove(job.ID); err != nil {
						b.Fatal(err)
					}
				}
				submit()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					submit()
				}
			})
		}
	}
}

// BenchmarkRebalance measures rebalance advice over 16 running jobs with
// the cache on: the base mix and every candidate move recur each iteration.
// One untimed call first fills the cache and the scratch, as in
// BenchmarkSubmit.
func BenchmarkRebalance(b *testing.B) {
	s, _ := benchScheduler(b, 16, true)
	rebalance := func() {
		if _, err := s.Rebalance(0.02); err != nil {
			b.Fatal(err)
		}
	}
	rebalance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rebalance()
	}
}

// BenchmarkDrainSocket measures a socket drain over 16 running jobs: each
// iteration drains the socket the previous one filled, migrating its jobs
// to the other socket, and returns the drained socket to service.
func BenchmarkDrainSocket(b *testing.B) {
	s, _ := benchScheduler(b, 16, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sock := i % 2
		rep, err := s.DrainSocket(sock, scheduler.DrainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Evicted) > 0 {
			b.Fatalf("drain of socket %d evicted %d jobs", sock, len(rep.Evicted))
		}
		if _, err := s.UncordonSocket(sock); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoScore measures the score-only joint solve every scheduler
// candidate runs: eight two-thread zoo jobs spread over the X5-2. The
// allocation report must read 0 allocs/op.
func BenchmarkCoScore(b *testing.B) {
	h := harnessFor(b, "x5-2")
	ws := zooWorkloads(b, h)
	topo := h.TB.Machine()
	all, err := placement.Spread(topo, 16)
	if err != nil {
		b.Fatal(err)
	}
	mix := make([]core.PlacedWorkload, 8)
	for i := range mix {
		mix[i] = core.PlacedWorkload{Workload: ws[i], Placement: all[2*i : 2*i+2]}
	}
	cp, err := core.NewCoPredictor(h.MD, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, len(mix))
	if _, err := cp.Score(mix, buf); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Score(mix, buf); err != nil {
			b.Fatal(err)
		}
	}
}
