package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pandia/internal/obs"
	"pandia/internal/scheduler"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	span := interval{0, 10}
	for _, tc := range []struct {
		name string
		kids []interval
		want float64
	}{
		{"no children", nil, 10},
		{"disjoint", []interval{{1, 2}, {4, 6}}, 7},
		// [1,3] and [2,5] overlap: together they cover [1,5], not 5s.
		{"overlapping", []interval{{1, 3}, {2, 5}}, 6},
		{"nested", []interval{{1, 9}, {2, 3}}, 2},
		// Children sticking out of the span count only inside it.
		{"clipped", []interval{{-1, 0.5}, {8, 12}, {1, 3}, {2, 5}}, 3.5},
		{"outside", []interval{{11, 12}}, 10},
	} {
		if got := selfTime(span, tc.kids); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpanTracerAttributesSchedulerSpans(t *testing.T) {
	var now float64
	tr := &spanTracer{on: true, clock: func() float64 { return now }}
	at := func(ts float64, e obs.Event) { now = ts; tr.Emit(e) }
	span := func(kind obs.EventKind, phase int32) obs.Event { return obs.Event{Kind: kind, Span: 1, Arg: phase} }
	// One Submit: its sweep looks up the cache, misses, and solves a
	// two-job mix (both jobs' start/end markers arrive together).
	at(0, span(obs.EvSpanBegin, scheduler.SpanPhaseOp))
	at(1, span(obs.EvSpanBegin, scheduler.SpanPhaseSweep))
	at(1, span(obs.EvSpanBegin, scheduler.SpanPhaseCache))
	at(2, span(obs.EvSpanEnd, scheduler.SpanPhaseCache))
	at(2, obs.Event{Kind: obs.EvPredictStart, Job: 0})
	at(2, obs.Event{Kind: obs.EvPredictStart, Job: 1})
	at(3, obs.Event{Kind: obs.EvIteration})
	at(5, obs.Event{Kind: obs.EvPredictEnd, Job: 0, Iter: 7})
	at(5, obs.Event{Kind: obs.EvPredictEnd, Job: 1, Iter: 7})
	at(6, span(obs.EvSpanEnd, scheduler.SpanPhaseSweep))
	at(10, span(obs.EvSpanEnd, scheduler.SpanPhaseOp))

	got, err := tr.take()
	if err != nil {
		t.Fatal(err)
	}
	want := spanTotals{opSelf: 5, sweepSelf: 1, cacheTime: 1, solveTime: 3, solves: 1, iterations: 7}
	if got != want {
		t.Fatalf("totals %+v, want %+v", got, want)
	}

	at(11, span(obs.EvSpanBegin, scheduler.SpanPhaseOp))
	at(12, span(obs.EvSpanEnd, scheduler.SpanPhaseSweep))
	if _, err := tr.take(); err == nil {
		t.Fatal("mismatched span end was not reported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		lower  bool
		want   string
	}{
		{"faster", scaled(0.8), true, "improved"},
		{"slower", scaled(1.3), true, "regressed"},
		{"same", scaled(1.0), true, "unchanged"},
		{"throughput down", scaled(0.8), false, "regressed"},
		{"too few pairs", scaled(0.8)[:5], true, "unresolved (5 pairs, need 10)"},
	} {
		if got, _ := verdict(parent, tc.change, tc.lower, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFailsOnDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string) string {
		path := filepath.Join(dir, name)
		for i := 0; i < minPairs; i++ {
			r := record{Workload: "advise", Seed: int64(i), Digest: digest, Correct: true, Attempted: 1,
				Metrics: map[string]float64{"ops_per_cpu_s": 10}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, other := write("a.jsonl", "01"), write("b.jsonl", "01"), write("c.jsonl", "02")
	decl := filepath.Join("..", "..", "BENCHMARK.json")
	var sink nopWriter
	if ok, err := compare(sink, decl, a, same); err != nil || !ok {
		t.Fatalf("identical runs: ok=%v err=%v", ok, err)
	}
	if ok, err := compare(sink, decl, a, other); err != nil || ok {
		t.Fatalf("digest mismatch: ok=%v err=%v, want a failure", ok, err)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWorkloadsHermetic runs every workload for a fixed small op count:
// every declared metric is printed with its unit, every check passes, and
// two traced runs of one seed agree exactly on the decision digest, the
// exact metrics and the per-layer counts.
func TestWorkloadsHermetic(t *testing.T) {
	decl := readBenchmarkJSON(t)
	// Op counts keep the test cheap under -race; the scheduler reference
	// run still reaches one socket drain.
	refOps := map[string]int{"advise": 1, "reproduce": 1, "sched-churn": churnDrainEvery, "sched-steady": 50}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 7, ops: 2, blocks: 2, setupReps: 1, refOps: refOps[w.name]}
			e2e := runChecked(t, w, o)
			checkDeclared(t, e2e, decl.EndToEnd)

			o.trace = true
			first, second := runChecked(t, w, o), runChecked(t, w, o)
			checkDeclared(t, first, decl.PerLayer)
			if first.digest != e2e.digest || second.digest != first.digest {
				t.Errorf("decision digests differ: %016x, %016x, %016x", e2e.digest, first.digest, second.digest)
			}
			for _, m := range decl.PerLayer {
				if m.Unit != "count" && !isExact(m.Name) {
					continue
				}
				if a, b := first.metrics[m.Name].Value, second.metrics[m.Name].Value; a != b {
					t.Errorf("%s differs between runs of one seed: %v vs %v", m.Name, a, b)
				}
			}
		})
	}
}

func isExact(name string) bool {
	for _, e := range exactMetrics {
		if e == name {
			return true
		}
	}
	return name == "core.cache.hit_frac" || name == "core.sweep.prune_frac"
}

func runChecked(t *testing.T, w workloadDef, o options) *outcome {
	t.Helper()
	out, err := run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct() {
		t.Fatalf("checks failed (%d of %d ops failed): %v", out.failed, out.attempted, out.problems)
	}
	return out
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (decl struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

func checkDeclared(t *testing.T, out *outcome, declared []declaredMetric) {
	t.Helper()
	if len(out.metrics) != len(declared) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(out.metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := out.metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s printed in %q, declared in %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
}
