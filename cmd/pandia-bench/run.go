package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"pandia/internal/bench"
	"pandia/internal/faults"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/workload"
)

// options configure one run of one workload.
type options struct {
	seed int64
	// seconds is the timed phase's length; ops > 0 replaces it with a fixed
	// op count (the hermetic test).
	seconds float64
	ops     int
	// blocks splits the timed phase; throughput, percentiles and
	// allocations are computed per block and reported as the median
	// across blocks.
	blocks    int
	setupReps int
	// refOps > 0 shortens the reference run (the hermetic test).
	refOps int
	// trace selects the per-layer run: layer probes, a traced reference
	// run, and a timed phase whose blocks alternate tracing off and on.
	trace bool
}

// defaultOptions is what the command line runs with.
func defaultOptions() options {
	return options{seconds: 20, blocks: 6, setupReps: 5}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run of one workload.
type outcome struct {
	workload  string
	attempted int64
	failed    int64
	// problems lists failed operations and checks (first few of each).
	problems []string
	digest   uint64
	metrics  map[string]metric
	// raw holds the end-to-end timings before host-speed scaling; they are
	// printed for reference but not reported.
	raw map[string]metric
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// run executes one workload: set-up (repeated), the reference run with its
// checks, warm-up, and the timed phase. It returns the end-to-end metrics,
// or the per-layer ones when o.trace is set.
func run(w workloadDef, o options) (*outcome, error) {
	out := &outcome{workload: w.name, metrics: make(map[string]metric), raw: make(map[string]metric)}
	lay := newLayers()
	cal := newCalibrator()
	var tr *spanTracer
	if o.trace && w.scheduler {
		tr = newSpanTracer()
	}

	// Set-up, repeated at least setupReps times and for setupMinTime, so a
	// set-up of a fraction of a millisecond still gets a stable median. The
	// last copy is the one the timed phase drives.
	phase := time.Now()
	var inst instance
	var setups, rawSetups []float64
	for total := 0.0; len(setups) < max(1, o.setupReps) ||
		(o.ops == 0 && total < setupMinTime && len(setups) < setupMaxReps); {
		inst = nil
		runtime.GC()
		cal.refresh()
		t0, c0 := time.Now(), cpuTime()
		var err error
		inst, err = w.setup(runConfig{seed: o.seed, model: w.model, lay: lay, tracer: tr, journal: w.journal})
		c := (cpuTime() - c0).Seconds()
		rawSetups = append(rawSetups, c)
		setups = append(setups, cal.scale(c))
		total += time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	logPhase(w, "set-up", len(setups), phase)

	phase = time.Now()
	ref, err := reference(w, o, out, tr)
	if err != nil {
		return nil, err
	}
	logPhase(w, "reference run", ref.ops, phase)

	// The warm-up replays the reference prefix on the instance the timed
	// phase drives, filling its caches.
	phase = time.Now()
	for i := 0; i < ref.ops; i++ {
		if err := inst.next(); err != nil {
			out.failed++
			out.problem("warm-up op %d: %v", i, err)
		}
		out.attempted++
	}
	logPhase(w, "warm-up", ref.ops, phase)
	if d := inst.digest(); d != out.digest {
		out.problem("warm-up decided differently from the reference run: digest %016x, want %016x", d, out.digest)
	}
	runtime.GC()
	lay.reset()
	phase = time.Now()
	blocks := timed(w, inst, lay, tr, cal, o, out)
	logPhase(w, "timed run", len(blocks), phase)
	if err := inst.verify(); err != nil {
		out.problem("end state: %v", err)
	}

	if o.trace {
		probes, err := probeLayers(w, o.seed)
		if err != nil {
			return nil, err
		}
		perLayer(out, ref, blocks, probes)
	} else {
		endToEnd(out, setups, rawSetups, blocks)
	}
	return out, nil
}

const (
	setupMinTime = 0.5 // seconds
	setupMaxReps = 100
)

// logPhase reports a phase's wall time on standard error.
func logPhase(w workloadDef, what string, n int, start time.Time) {
	fmt.Fprintf(os.Stderr, "pandia-bench: %s: %s (%d) took %.2fs\n", w.name, what, n, time.Since(start).Seconds())
}

// refResult is what the reference run measured: deterministic work counts
// over the first refOps ops of the seeded sequence.
type refResult struct {
	ops        int
	delta      map[string]int64
	iterSum    float64
	lay        *layers
	spans      spanTotals
	exact      map[string]float64
	candidates float64 // per submit, from the journal
	// records is how many decisions the workload journaled (0 when its
	// journal is off; the reference run journals regardless, for
	// candidates).
	records int64
}

// reference runs the first ops of the seeded sequence on a fresh instance
// with one worker thread, so even the parallel sweep's prune split repeats
// exactly. Every op is checked, the decision digest is taken, and a
// scheduler workload is replayed on a twin without the prediction cache,
// which must decide identically.
func reference(w workloadDef, o options, out *outcome, tr *spanTracer) (*refResult, error) {
	n := w.refOps
	if o.refOps > 0 {
		n = o.refOps
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	res := &refResult{ops: n, lay: newLayers()}
	inst, err := w.setup(runConfig{seed: o.seed, model: w.model, lay: res.lay, tracer: tr, reference: true, journal: w.journal})
	if err != nil {
		return nil, fmt.Errorf("%s reference set-up: %w", w.name, err)
	}
	res.lay.reset()
	if tr != nil {
		tr.on = true
		defer func() { tr.on = false }()
		if _, err := tr.take(); err != nil {
			return nil, err
		}
	}
	before := obs.Default().Snapshot()
	for i := 0; i < n; i++ {
		out.attempted++
		if err := inst.next(); err != nil {
			out.failed++
			out.problem("reference op %d: %v", i, err)
		}
	}
	after := obs.Default().Snapshot()
	res.delta = after.DeltaFrom(before)
	if hb, ha := before.Histogram("core.predict.iterations"), after.Histogram("core.predict.iterations"); hb != nil && ha != nil {
		res.iterSum = ha.Sum - hb.Sum
	}
	if tr != nil {
		if res.spans, err = tr.take(); err != nil {
			out.problem("reference trace: %v", err)
		}
	}
	// verify runs after the snapshots, so its own work is not counted.
	if err := inst.verify(); err != nil {
		out.problem("reference end state: %v", err)
	}
	res.exact = inst.exact()
	out.digest = inst.digest()

	if j := inst.journal(); j != nil {
		var cands, submits float64
		for _, rec := range j.Records() {
			if rec.Op == "submit" {
				cands += float64(rec.Candidates)
				submits++
			}
		}
		res.candidates = ratio(cands, submits)
		if w.journal {
			res.records = j.Recorded()
		}
	}

	if w.scheduler {
		twin, err := w.setup(runConfig{seed: o.seed, model: w.model, lay: newLayers(), reference: true, noCache: true, journal: w.journal})
		if err != nil {
			return nil, fmt.Errorf("%s twin set-up: %w", w.name, err)
		}
		for i := 0; i < n; i++ {
			if err := twin.next(); err != nil {
				out.problem("uncached twin op %d: %v", i, err)
				break
			}
		}
		if twin.digest() != out.digest {
			out.problem("uncached twin decided differently: digest %016x, cached %016x", twin.digest(), out.digest)
		}
	}
	return res, nil
}

// block is one slice of the timed phase.
type block struct {
	ops int
	// cpu holds each op's process CPU time in ms, scaled to the reference
	// host, and cpuScaled their sum in seconds; cpuRaw is the unscaled sum
	// and wall the ops' summed wall time.
	cpu       *hist
	cpuScaled float64
	cpuRaw    float64
	wall      float64
	alloc     float64   // heap bytes allocated
	live      []float64 // live heap bytes, sampled at most every 2ms
	traced    bool
	lay       *layers
	spans     spanTotals
}

// rate is the block's ops per CPU second on the reference host.
func (b *block) rate() float64 { return float64(b.ops) / b.cpuScaled }

var (
	heapLive   = "/gc/heap/live:bytes"
	heapAllocs = "/gc/heap/allocs:bytes"
)

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// timed drives the instance for o.seconds (or o.ops ops) in o.blocks
// blocks. A block ends after its share of the time once its op count is a
// whole number of the workload's periods. A traced run alternates blocks
// with the tracer off and on.
func timed(w workloadDef, inst instance, lay *layers, tr *spanTracer, cal *calibrator, o options, out *outcome) []block {
	nb := max(1, o.blocks)
	blockDur := time.Duration(o.seconds / float64(nb) * float64(time.Second))
	period := max(1, w.period)
	perBlock := 0
	if o.ops > 0 {
		perBlock = max(1, o.ops/nb)
	}
	var blocks []block
	j := inst.journal()
	journalOn := j.Enabled()
	for bi := 0; bi < nb; bi++ {
		b := block{traced: tr != nil && bi%2 == 1, cpu: new(hist)}
		lay.reset()
		if tr != nil {
			tr.on = b.traced
			j.SetEnabled(journalOn || b.traced)
		}
		a0 := readMetric(heapAllocs)
		var lastPeek time.Time
		start := time.Now()
		for {
			cal.refresh()
			t0, c0 := time.Now(), cpuTime()
			err := inst.next()
			c, d := (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
			b.ops++
			b.wall += d
			b.cpuRaw += c
			b.cpuScaled += cal.scale(c)
			b.cpu.add(cal.scale(c) * 1e3)
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("op: %v", err)
			}
			now := time.Now()
			if now.Sub(lastPeek) >= 2*time.Millisecond {
				b.live = append(b.live, readMetric(heapLive))
				lastPeek = now
			}
			if perBlock > 0 {
				if b.ops >= perBlock {
					break
				}
			} else if now.Sub(start) >= blockDur && b.ops%period == 0 {
				break
			}
		}
		b.alloc = readMetric(heapAllocs) - a0
		b.lay = newLayers()
		b.lay.add(lay)
		if tr != nil {
			tr.on = false
			j.SetEnabled(journalOn)
			var err error
			if b.spans, err = tr.take(); err != nil {
				out.problem("trace: %v", err)
			}
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// endToEnd fills the end-to-end metrics: the median across blocks of each
// block's throughput, CPU-time percentiles and allocation per op, the
// median set-up time, and the live heap's 90th percentile over the timed
// phase. The heap's maximum is left out: it is one GC cycle's transient,
// and caches that fill and reset move it by a fifth from run to run.
func endToEnd(out *outcome, setups, rawSetups []float64, blocks []block) {
	var rates, p50, p90, allocs, live, rawRates, wallRates, factors []float64
	for _, b := range blocks {
		live = append(live, b.live...)
		rates = append(rates, b.rate())
		p50 = append(p50, b.cpu.quantile(0.5))
		p90 = append(p90, b.cpu.quantile(0.9))
		allocs = append(allocs, b.alloc/float64(b.ops)/1024)
		rawRates = append(rawRates, float64(b.ops)/b.cpuRaw)
		wallRates = append(wallRates, float64(b.ops)/b.wall)
		factors = append(factors, b.cpuScaled/b.cpuRaw)
	}
	out.metrics["setup_s"] = metric{median(setups), "s"}
	out.metrics["ops_per_cpu_s"] = metric{median(rates), "1/s"}
	out.metrics["op_cpu_p50_ms"] = metric{median(p50), "ms"}
	out.metrics["op_cpu_p90_ms"] = metric{median(p90), "ms"}
	out.metrics["heap_live_p90_mb"] = metric{percentile(live, 0.9) / (1 << 20), "MB"}
	out.metrics["alloc_kb_per_op"] = metric{median(allocs), "KB"}
	out.raw["setup_s"] = metric{median(rawSetups), "s"}
	out.raw["ops_per_cpu_s"] = metric{median(rawRates), "1/s"}
	out.raw["ops_per_wall_s"] = metric{median(wallRates), "1/s"}
	out.raw["host_speed_factor"] = metric{median(factors), "x"}
}

// probes are the set-up layers timed in isolation.
type probes struct {
	describeMs, enumerateMs, profileMs, profileSelfMs float64
}

// probeReps is how many times each set-up layer is timed in isolation.
const probeReps = 5

// probeLayers times the set-up layers one by one on the workload's machine:
// the machine description, the placement enumeration, and one six-run
// profile of each of the first zoo workloads.
func probeLayers(w workloadDef, seed int64) (probes, error) {
	var p probes
	var describe, enumerate, profile, self []float64
	for i := 0; i < probeReps; i++ {
		tb, err := newTestbed(w.model)
		if err != nil {
			return p, err
		}
		lay := newLayers()
		run := timedRunner{Runner: tb, lay: lay}
		t0 := time.Now()
		md, _, err := machine.DescribeWith(run, faults.Policy{})
		describe = append(describe, msSince(t0))
		if err != nil {
			return p, err
		}
		t0 = time.Now()
		shapes := placement.Enumerate(tb.Machine())
		enumerate = append(enumerate, msSince(t0))
		if len(shapes) == 0 {
			return p, fmt.Errorf("probe: %s has no placements", w.model)
		}
		e := bench.Zoo()[i]
		lay.reset()
		t0 = time.Now()
		if _, err := (&workload.Profiler{TB: run, MD: md, Seed: seed}).Profile(e.Truth); err != nil {
			return p, err
		}
		ms := msSince(t0)
		profile = append(profile, ms)
		self = append(self, ms-float64(lay.simTime.Nanoseconds())/1e6)
	}
	p.describeMs, p.enumerateMs = median(describe), median(enumerate)
	p.profileMs, p.profileSelfMs = median(profile), median(self)
	return p, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// perLayer fills the per-layer metrics: counts from the reference run,
// times from the timed phase (external timings from untraced blocks, span
// shares from traced ones), set-up layers from the probes.
func perLayer(out *outcome, ref *refResult, blocks []block, pr probes) {
	set := func(name, unit string, v float64) { out.metrics[name] = metric{v, unit} }
	ops := float64(ref.ops)
	d := func(name string) float64 { return float64(ref.delta[name]) }

	plain := newLayers()
	var plainOpTime, tracedOpTime float64
	var plainRates, tracedRates []float64
	var spans spanTotals
	for _, b := range blocks {
		if b.traced {
			tracedOpTime += b.wall
			tracedRates = append(tracedRates, b.rate())
			spans.add(b.spans)
			continue
		}
		plain.add(b.lay)
		plainOpTime += b.wall
		plainRates = append(plainRates, b.rate())
	}

	// Testbed (simhw): wrapped runs plus the harness's measurement runs.
	set("simhw.runs_per_op", "count", float64(ref.lay.simRuns+ref.lay.measureRuns)/ops)
	set("simhw.run_us", "us", ratio(float64(plain.simTime.Nanoseconds())/1e3, float64(plain.simRuns)))
	set("simhw.time_frac", "frac", ratio((plain.simTime+plain.measureTime).Seconds(), plainOpTime))

	set("machine.describe_ms", "ms", pr.describeMs)
	set("placement.enumerate_ms", "ms", pr.enumerateMs)
	set("workload.profile_ms", "ms", pr.profileMs)
	set("workload.profile_self_ms", "ms", pr.profileSelfMs)

	// Placement sweep (core.PredictSweepPruned under Recommend).
	preds, pruned := d("core.sweep.predictions"), d("core.sweep.pruned")
	set("placement.shapes_per_op", "count", float64(ref.lay.shapes)/ops)
	set("core.sweep.predictions_per_op", "count", preds/ops)
	set("core.sweep.pruned_per_op", "count", pruned/ops)
	set("core.sweep.prune_frac", "frac", ratio(pruned, preds+pruned))
	set("pandia.recommend_p50_ms", "ms", plain.recommendMs.quantile(0.5))

	// Prediction caches (PredictionCache and the scheduler's CoCache share
	// the core.cache counters).
	hits, misses := d("core.cache.hits"), d("core.cache.misses")
	set("core.cache.lookups_per_op", "count", (hits+misses)/ops)
	set("core.cache.hit_frac", "frac", ratio(hits, hits+misses))
	set("core.cache.evictions_per_op", "count", d("core.cache.evictions")/ops)
	set("core.cache.lookup_time_frac", "frac", ratio(spans.cacheTime, tracedOpTime))

	// Fixed-point solver: single-workload solves from the registry, joint
	// solves from the scheduler's trace.
	solves := d("core.predict.total") + float64(ref.spans.solves)
	set("core.solver.warm_starts_per_op", "count", d("core.solver.warm_starts")/ops)
	set("core.solver.solves_per_op", "count", solves/ops)
	set("core.solver.iterations_per_solve", "count", ratio(ref.iterSum+float64(ref.spans.iterations), solves))
	set("core.solver.time_frac", "frac", ratio(spans.solveTime, tracedOpTime))

	// Evaluation harness.
	set("eval.measure_ms", "ms", ratio(plain.measureTime.Seconds()*1e3, float64(plain.curves)))
	set("eval.predict_ms", "ms", ratio(plain.predictTime.Seconds()*1e3, float64(plain.curves)))
	set("eval.median_err_pct", "%", ref.exact["eval.median_err_pct"])
	set("eval.best_gap_pct", "%", ref.exact["eval.best_gap_pct"])

	// Scheduler operations, timed from the client.
	us := func(op string, q float64) float64 { return plain.series(op).quantile(q) }
	set("scheduler.submit_p50_us", "us", us("submit", 0.5))
	set("scheduler.submit_p99_us", "us", us("submit", 0.99))
	set("scheduler.remove_p50_us", "us", us("remove", 0.5))
	set("scheduler.predict_p50_us", "us", us("predict", 0.5))
	set("scheduler.rebalance_p50_us", "us", us("rebalance", 0.5))
	set("scheduler.rebalance_p99_us", "us", us("rebalance", 0.99))
	set("scheduler.drain_p50_ms", "ms", us("drain", 0.5)/1e3)
	set("scheduler.candidates_per_submit", "count", ref.candidates)
	set("scheduler.candidates.pruned_per_submit", "count", ratio(d("scheduler.candidates.pruned"), float64(ref.lay.submits)))
	set("scheduler.reject_frac", "frac", ref.exact["scheduler.reject_frac"])
	set("scheduler.self_time_frac", "frac", ratio(spans.opSelf, tracedOpTime))
	set("scheduler.sweep.self_time_frac", "frac", ratio(spans.sweepSelf, tracedOpTime))

	// Flight recorder.
	set("obs.journal.records_per_op", "count", float64(ref.records)/ops)
	overhead := 0.0
	if len(tracedRates) > 0 {
		overhead = 1 - median(tracedRates)/median(plainRates)
	}
	set("obs.trace_overhead_frac", "frac", overhead)
}
