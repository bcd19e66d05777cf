// Command pandia-eval regenerates the paper's evaluation (§6): every
// figure and table, on the simulated machines. Outputs are printed as text
// tables and written as CSV files for plotting.
//
// Experiments (select with -experiments, comma-separated, default all):
//
//	curves      Figs. 1 & 10: measured vs predicted placement curves, X5-2
//	ablation    DESIGN.md ablation table: model terms removed one at a time
//	errors      Figs. 11a-b: error summaries on the X5-2 and X3-2
//	portability Figs. 11c-d: cross-machine workload descriptions
//	foursocket  Fig. 12: the 4-socket X2-4 by placement class
//	special     Fig. 13: single-threaded NPO and equake
//	turbo       Fig. 14: Turbo Boost instruction-rate curves
//	best        §6.1 table: best-predicted vs best-measured placements
//	sweep       §6.3 table: packed/spread sweep baseline comparison
//	noise       robustness: fault-injected profiling, naive vs hardened
//	throughput  prediction throughput: batched full-zoo sweeps, X5-2
//	convergence solver iterations-to-convergence histograms, X5-2
//
// With -trace <dir>, one representative solve per workload is additionally
// recorded through the solver tracer and written as Chrome trace_event JSON
// (load "chrome://tracing" or https://ui.perfetto.dev), compact JSONL, and
// a per-resource contention explanation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pandia/internal/bench"
	"pandia/internal/core"
	"pandia/internal/eval"
	"pandia/internal/faults"
	"pandia/internal/obs"
)

var (
	outDir    = flag.String("out", "results", "directory for CSV outputs")
	exps      = flag.String("experiments", "all", "comma-separated experiment list (see doc comment)")
	workloads = flag.String("workloads", "", "comma-separated workload subset (default: full zoo)")
	maxPlace  = flag.Int("max-placements", -1, "placement sample cap per machine (-1 = paper defaults)")
	seed      = flag.Int64("seed", 1, "measurement noise / sampling seed")
	ascii     = flag.Bool("ascii", false, "also print ASCII curve plots")
	traceDir  = flag.String("trace", "", "record one solve per workload into this directory (Chrome trace JSON + JSONL + explanation)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pandia-eval:", err)
		os.Exit(1)
	}
}

// harnessCache builds each machine's harness at most once per process.
type harnessCache map[string]*eval.Harness

func (hc harnessCache) get(key string) (*eval.Harness, error) {
	if h, ok := hc[key]; ok {
		return h, nil
	}
	max := *maxPlace
	if max < 0 {
		max = eval.DefaultMaxPlacements(key)
	}
	start := time.Now()
	h, err := eval.NewHarness(key, max, *seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# harness %s: %d placements under evaluation (built in %v)\n",
		key, len(h.Shapes), time.Since(start).Round(time.Millisecond))
	hc[key] = h
	return h, nil
}

func selectedWorkloads() []bench.Entry {
	if *workloads == "" {
		return bench.Zoo()
	}
	var out []bench.Entry
	for _, name := range strings.Split(*workloads, ",") {
		e, err := bench.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pandia-eval:", err)
			os.Exit(2)
		}
		out = append(out, e)
	}
	return out
}

func run() error {
	if err := eval.EnsureDir(*outDir); err != nil {
		return err
	}
	want := make(map[string]bool)
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	hc := make(harnessCache)
	entries := selectedWorkloads()
	report = eval.NewReport()

	type step struct {
		name string
		fn   func(harnessCache, []bench.Entry) error
	}
	for _, s := range []step{
		{"curves", curves},
		{"errors", errors},
		{"portability", portability},
		{"foursocket", fourSocket},
		{"special", special},
		{"turbo", turbo},
		{"best", best},
		{"sweep", sweep},
		{"ablation", ablation},
		{"noise", noise},
		{"throughput", throughput},
		{"convergence", convergence},
	} {
		if !all && !want[s.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("\n==== %s ====\n", s.name)
		if err := s.fn(hc, entries); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Printf("# %s done in %v\n", s.name, time.Since(start).Round(time.Millisecond))
	}
	if *traceDir != "" {
		if err := traceSolves(hc, entries); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	// Snapshot the process-wide metrics last so the report carries the
	// quality totals (faults.measure.retries/outliers, core.predict.*) of
	// everything that ran, whether or not any CSV was requested — plus the
	// run's own counter deltas since the report was allocated.
	report.FinishMetrics()
	reportPath := filepath.Join(*outDir, "report.json")
	if err := report.Save(reportPath); err != nil {
		return err
	}
	fmt.Printf("\nmachine-readable report written to %s\n", reportPath)
	return nil
}

// report accumulates every experiment's machine-readable output for
// results/report.json.
var report *eval.Report

// curves regenerates Figs. 1 and 10: one CSV per workload on the X5-2.
func curves(hc harnessCache, entries []bench.Entry) error {
	h, err := hc.get("x5-2")
	if err != nil {
		return err
	}
	for _, e := range entries {
		c, err := h.CurveFor(e)
		if err != nil {
			return err
		}
		path := eval.CurvePath(*outDir, h.Key, e.Name)
		if err := eval.SaveCurveCSV(path, c); err != nil {
			return err
		}
		m := c.Metrics()
		fmt.Printf("%-10s %5d placements  %s  -> %s\n", e.Name, len(c.Shapes), m, path)
		if *ascii {
			fmt.Println(eval.ASCIICurve(c, 100, 16))
		}
	}
	return nil
}

// errors regenerates Figs. 11a-b.
func errors(hc harnessCache, entries []bench.Entry) error {
	for _, key := range []string{"x5-2", "x3-2"} {
		h, err := hc.get(key)
		if err != nil {
			return err
		}
		s, err := eval.ErrorSummary(h, entries)
		if err != nil {
			return err
		}
		report.AddSummary(s)
		if err := eval.RenderSummary(os.Stdout, s); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// portability regenerates Figs. 11c-d.
func portability(hc harnessCache, entries []bench.Entry) error {
	x52, err := hc.get("x5-2")
	if err != nil {
		return err
	}
	x32, err := hc.get("x3-2")
	if err != nil {
		return err
	}
	for _, pair := range []struct{ src, dst *eval.Harness }{{x32, x52}, {x52, x32}} {
		s, err := eval.Portability(pair.src, pair.dst, entries)
		if err != nil {
			return err
		}
		report.AddSummary(s)
		if err := eval.RenderSummary(os.Stdout, s); err != nil {
			return err
		}
		fmt.Println()
	}
	// Extension: the same cross-machine predictions with ESTIMA-inspired
	// description rescaling (§8 future work).
	s, err := eval.PortabilityRescaled(x32, x52, entries)
	if err != nil {
		return err
	}
	report.AddSummary(s)
	if err := eval.RenderSummary(os.Stdout, s); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// ablation regenerates the DESIGN.md ablation table on the X3-2.
func ablation(hc harnessCache, entries []bench.Entry) error {
	h, err := hc.get("x3-2")
	if err != nil {
		return err
	}
	rows, err := eval.Ablations(h, entries)
	if err != nil {
		return err
	}
	report.Ablations = rows
	return eval.RenderAblations(os.Stdout, h.Key, rows)
}

// fourSocket regenerates Fig. 12 (Sort-Join excluded: AVX, §6.2).
func fourSocket(hc harnessCache, entries []bench.Entry) error {
	h, err := hc.get("x2-4")
	if err != nil {
		return err
	}
	var filtered []bench.Entry
	for _, e := range entries {
		if e.Name != "Sort-Join" {
			filtered = append(filtered, e)
		}
	}
	rows, err := eval.FourSocket(h, filtered)
	if err != nil {
		return err
	}
	report.FourSocket = rows
	return eval.RenderFourSocket(os.Stdout, h.Key, rows)
}

// special regenerates Fig. 13: NPO-single on the X5-2, equake on both.
func special(hc harnessCache, _ []bench.Entry) error {
	cases := []struct {
		machine string
		entry   bench.Entry
	}{
		{"x5-2", bench.NPOSingle()},
		{"x3-2", bench.Equake()},
		{"x5-2", bench.Equake()},
	}
	for _, c := range cases {
		h, err := hc.get(c.machine)
		if err != nil {
			return err
		}
		curve, err := h.CurveFor(c.entry)
		if err != nil {
			return err
		}
		path := eval.CurvePath(*outDir, h.Key, c.entry.Name)
		if err := eval.SaveCurveCSV(path, curve); err != nil {
			return err
		}
		m := curve.Metrics()
		fmt.Printf("%-12s on %-5s %s -> %s\n", c.entry.Name, c.machine, m, path)
		if *ascii {
			fmt.Println(eval.ASCIICurve(curve, 100, 16))
		}
	}
	return nil
}

// turbo regenerates Fig. 14.
func turbo(hc harnessCache, _ []bench.Entry) error {
	h, err := hc.get("x5-2")
	if err != nil {
		return err
	}
	tc, err := eval.TurboStudy(h.TB)
	if err != nil {
		return err
	}
	report.Turbo = tc
	path := filepath.Join(*outDir, "fig14-turbo.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eval.RenderTurbo(f, tc); err != nil {
		return err
	}
	fmt.Printf("solo per-thread rate: turbo %.2f, filled %.2f, nominal %.2f -> %s\n",
		tc.TurboIdle[0].PerThreadRate, tc.TurboBackground[0].PerThreadRate,
		tc.Nominal[0].PerThreadRate, path)
	return f.Close()
}

// best regenerates the §6.1 best-placement table over three machines.
func best(hc harnessCache, entries []bench.Entry) error {
	for _, key := range []string{"x5-2", "x4-2", "x3-2"} {
		h, err := hc.get(key)
		if err != nil {
			return err
		}
		s, err := eval.ErrorSummary(h, entries)
		if err != nil {
			return err
		}
		fmt.Printf("%-5s best-placement gap: mean %.2f%%, median %.2f%%; %3.0f%% of workloads peak below max threads\n",
			key, s.MeanBestGap, s.MedianBestGap, 100*s.FracPeakBelowMax)
	}
	return nil
}

// noise runs the robustness study on the X3-2: profiling through the fault
// injector at increasing rates, naive single-shot versus the hardened
// median-of-k + degraded-prediction pipeline.
func noise(hc harnessCache, entries []bench.Entry) error {
	h, err := hc.get("x3-2")
	if err != nil {
		return err
	}
	n, err := eval.NoiseResilience(h, entries, eval.DefaultNoiseRates(), faults.RobustDefaults(), 3, *seed)
	if err != nil {
		return err
	}
	report.Noise = n
	if err := eval.RenderNoise(os.Stdout, n); err != nil {
		return err
	}
	path := filepath.Join(*outDir, "noise-resilience.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eval.WriteNoiseCSV(f, n); err != nil {
		return err
	}
	fmt.Printf("-> %s\n", path)
	return f.Close()
}

// throughput measures batched prediction throughput on the X5-2: repeated
// full-zoo PredictAll sweeps over every enumerated placement, reported as
// placements predicted per second, with the prediction cache's hit rate
// (round 1 is all misses, later rounds all hits) and a pruned-sweep pass
// reporting how much of the space the dominance bound skips. Timing lives
// here rather than in internal/eval because wall-clock reads are confined
// to cmd/ (detflow).
func throughput(hc harnessCache, entries []bench.Entry) error {
	h, err := hc.get("x5-2")
	if err != nil {
		return err
	}
	const rounds = 3
	var preds int
	cacheBefore := h.Cache().Stats()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range entries {
			prof, err := h.Profile(e)
			if err != nil {
				return err
			}
			ps, err := h.PredictAll(&prof.Workload)
			if err != nil {
				return err
			}
			preds += len(ps)
		}
	}
	elapsed := time.Since(start)
	perSec := float64(preds) / elapsed.Seconds()
	after := h.Cache().Stats()
	delta := core.CacheStats{
		Hits:      after.Hits - cacheBefore.Hits,
		Misses:    after.Misses - cacheBefore.Misses,
		Evictions: after.Evictions - cacheBefore.Evictions,
	}
	fmt.Printf("%d predictions (%d workloads x %d placements x %d rounds) in %v: %.0f placements/s\n",
		preds, len(entries), len(h.Placements()), rounds,
		elapsed.Round(time.Millisecond), perSec)
	fmt.Printf("cache: %d hits / %d misses (hit-rate %.1f%%), %d evictions\n",
		delta.Hits, delta.Misses, 100*delta.HitRate(), delta.Evictions)

	// Pruned sweep: the Recommend-style search (frac 0.95) over the same
	// placement set, on a cold cache so pruning is measured rather than
	// hidden behind hits.
	var sweep core.SweepStats
	prunedStart := time.Now()
	for _, e := range entries {
		prof, err := h.Profile(e)
		if err != nil {
			return err
		}
		_, st, err := core.PredictSweepPruned(h.MD, &prof.Workload, h.Placements(), core.Options{}, 0.95)
		if err != nil {
			return err
		}
		sweep.Evaluated += st.Evaluated
		sweep.Pruned += st.Pruned
	}
	prunedElapsed := time.Since(prunedStart)
	prunedPerSec := float64(sweep.Evaluated+sweep.Pruned) / prunedElapsed.Seconds()
	fmt.Printf("pruned sweep (frac 0.95): %d evaluated / %d pruned (prune-rate %.1f%%) in %v: %.0f placements/s\n",
		sweep.Evaluated, sweep.Pruned, 100*sweep.PruneRate(),
		prunedElapsed.Round(time.Millisecond), prunedPerSec)
	return nil
}

// convergence runs the solver convergence study on the X5-2: full slow-path
// predictions over the Fig. 10 placement sets, histogramming the fixed-point
// solver's iterations-to-convergence per workload.
func convergence(hc harnessCache, entries []bench.Entry) error {
	h, err := hc.get("x5-2")
	if err != nil {
		return err
	}
	c, err := eval.ConvergenceStudy(h, entries)
	if err != nil {
		return err
	}
	report.Convergence = c
	if err := eval.RenderConvergence(os.Stdout, c); err != nil {
		return err
	}
	path := filepath.Join(*outDir, "convergence.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eval.WriteConvergenceCSV(f, c); err != nil {
		return err
	}
	fmt.Printf("-> %s\n", path)
	return f.Close()
}

// traceSolves records one representative solve per workload — the largest
// placement in the evaluation set — through the solver tracer, and writes
// each as Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev),
// compact JSONL, and a rendered contention explanation. The trace clock is
// a deterministic manual clock (1ms per event), so traces are reproducible
// artifacts, not timing measurements.
func traceSolves(hc harnessCache, entries []bench.Entry) error {
	if err := eval.EnsureDir(*traceDir); err != nil {
		return err
	}
	h, err := hc.get("x5-2")
	if err != nil {
		return err
	}
	// Representative placement: the widest one under evaluation, which
	// exercises every contention term in the model.
	place := h.Placements()[0]
	for _, p := range h.Placements() {
		if len(p) > len(place) {
			place = p
		}
	}
	fmt.Printf("\n==== trace ====\n")
	for _, e := range entries {
		prof, err := h.Profile(e)
		if err != nil {
			return err
		}
		tr := obs.NewRingTracer(4096, obs.NewManualClock(0, 1e-3))
		p, err := core.NewPredictor(h.MD, &prof.Workload, core.Options{Tracer: tr})
		if err != nil {
			return err
		}
		pred, err := p.Predict(place)
		if err != nil {
			return err
		}
		labels := core.TraceLabels(h.MD, func(int32) string { return e.Name })
		base := filepath.Join(*traceDir, fmt.Sprintf("%s-%s", h.Key, e.Name))
		cf, err := os.Create(base + ".trace.json")
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(cf, tr.Events(), labels); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
		jf, err := os.Create(base + ".jsonl")
		if err != nil {
			return err
		}
		if err := obs.WriteJSONL(jf, tr.Events(), labels); err != nil {
			jf.Close()
			return err
		}
		if err := jf.Close(); err != nil {
			return err
		}
		ex, err := core.ExplainPrediction(h.MD, pred, place)
		if err != nil {
			return err
		}
		ex.Workload = e.Name
		if err := os.WriteFile(base+".explain.txt", []byte(ex.Render()), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-12s %2d iterations, %3d events -> %s.{trace.json,jsonl,explain.txt}\n",
			e.Name, pred.Iterations, len(tr.Events()), base)
	}
	return nil
}

// sweep regenerates the §6.3 sweep-baseline table over three machines.
func sweep(hc harnessCache, entries []bench.Entry) error {
	for _, key := range []string{"x5-2", "x4-2", "x3-2"} {
		h, err := hc.get(key)
		if err != nil {
			return err
		}
		s, err := eval.SweepStudy(h, entries)
		if err != nil {
			return err
		}
		report.Sweeps[key] = s
		if err := eval.RenderSweep(os.Stdout, s); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
