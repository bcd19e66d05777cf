package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// TestTraceEventStructure runs one traced solve and pins the event
// protocol: a start event carrying the thread count, one iteration event
// per refinement round (1-based, residual shrinking to convergence), and an
// end event with the total count and converged flag.
func TestTraceEventStructure(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	tr := obs.NewRingTracer(4096, obs.NewManualClock(0, 0.001))
	pred, err := Predict(md, w, workedExamplePlacement(), Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	ev := tr.Events()
	if len(ev) != pred.Iterations+2 {
		t.Fatalf("got %d events for a %d-iteration solve, want %d",
			len(ev), pred.Iterations, pred.Iterations+2)
	}
	start := ev[0]
	if start.Kind != obs.EvPredictStart || int(start.Arg) != len(workedExamplePlacement()) {
		t.Fatalf("first event = %+v, want predict-start with thread count", start)
	}
	for i := 1; i <= pred.Iterations; i++ {
		it := ev[i]
		if it.Kind != obs.EvIteration || int(it.Iter) != i {
			t.Fatalf("event %d = %+v, want iteration %d", i, it, i)
		}
		if it.Residual < 0 {
			t.Fatalf("iteration %d: negative residual %g", i, it.Residual)
		}
		if it.Factor < 1 {
			t.Fatalf("iteration %d: slowdown factor %g < 1", i, it.Factor)
		}
	}
	end := ev[len(ev)-1]
	if end.Kind != obs.EvPredictEnd || int(end.Iter) != pred.Iterations || (end.Arg == 1) != pred.Converged {
		t.Fatalf("last event = %+v, want predict-end iter=%d converged=%v",
			end, pred.Iterations, pred.Converged)
	}
	// The final iteration's residual is the one that beat the tolerance.
	tol := (Options{}).tolerance()
	if pred.Converged && ev[len(ev)-2].Residual >= tol {
		t.Fatalf("final residual %g not under tolerance", ev[len(ev)-2].Residual)
	}
	// The tracer's clock must have stamped strictly increasing times.
	for i := 1; i < len(ev); i++ {
		if ev[i].Time <= ev[i-1].Time {
			t.Fatalf("timestamps not increasing at %d: %g then %g", i, ev[i-1].Time, ev[i].Time)
		}
	}
}

// TestTraceDisabledEmitsNothing checks both disabled forms — a nil tracer
// and a disabled tracer — record no events and change no results.
func TestTraceDisabledEmitsNothing(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	want, err := Predict(md, w, workedExamplePlacement(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewRingTracer(64, nil)
	tr.SetEnabled(false)
	got, err := Predict(md, w, workedExamplePlacement(), Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(tr.Events()))
	}
	if got.Time != want.Time || got.Speedup != want.Speedup {
		t.Fatalf("tracing changed the prediction: %v vs %v", got.Time, want.Time)
	}
}

// TestChromeTraceGolden pins the exported Chrome trace_event JSON for one
// two-iteration solve: engine → ring buffer → trace JSON must round-trip
// byte-identically. Refresh with PANDIA_UPDATE_GOLDEN=1 go test.
func TestChromeTraceGolden(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	tr := obs.NewRingTracer(64, obs.NewManualClock(0, 0.001))
	if _, err := Predict(md, w, workedExamplePlacement(), Options{MaxIterations: 2, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	labels := TraceLabels(md, func(int32) string { return w.Name })
	if err := obs.WriteChromeTrace(&buf, tr.Events(), labels); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if os.Getenv("PANDIA_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (refresh with PANDIA_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace JSON drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWorstResourceMatchesCoPrediction cross-checks the two dominant-
// resource computations: the solo path's allocation-free dense-table scan
// must agree with the co-scheduling path's sorted-Loads-map scan for a
// single workload, including the tie-break order.
func TestWorstResourceMatchesCoPrediction(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	for _, place := range predictorPlacements() {
		solo, err := Predict(md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		co, err := PredictCoSchedule(md, []PlacedWorkload{{Workload: w, Placement: place}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if solo.WorstResource != co.WorstResource || solo.WorstOversubscription != co.WorstOversubscription {
			t.Errorf("%v: solo worst (%v, %g) != co-schedule worst (%v, %g)", place,
				solo.WorstResource, solo.WorstOversubscription, co.WorstResource, co.WorstOversubscription)
		}
		if solo.WorstOversubscription <= 0 {
			t.Errorf("%v: no dominant resource on a loaded machine", place)
		}
	}
}

// TestExplainPrediction checks the attribution report: the dominant
// resource must match Prediction.WorstResource, the per-socket shares must
// partition the thread-time, and the rendering must name the paper's
// resources.
func TestExplainPrediction(t *testing.T) {
	md := toyMachine()
	w := exampleWorkload()
	for _, place := range predictorPlacements() {
		pred, err := Predict(md, w, place, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExplainPrediction(md, pred, place)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Time != pred.Time || ex.Speedup != pred.Speedup || ex.AmdahlSpeedup != pred.AmdahlSpeedup {
			t.Errorf("%v: Explain headline time %g, speedup %g, Amdahl %g; Prediction has %g, %g, %g",
				place, ex.Time, ex.Speedup, ex.AmdahlSpeedup, pred.Time, pred.Speedup, pred.AmdahlSpeedup)
		}
		if ex.Dominant != pred.WorstResource {
			t.Errorf("%v: Explain dominant %v != Prediction.WorstResource %v",
				place, ex.Dominant, pred.WorstResource)
		}
		if ex.DominantRatio != pred.WorstOversubscription {
			t.Errorf("%v: Explain ratio %g != WorstOversubscription %g",
				place, ex.DominantRatio, pred.WorstOversubscription)
		}
		totalThreads := 0
		for _, sa := range ex.Sockets {
			totalThreads += sa.Threads
			sum := sa.BaseShare + sa.ResourceShare + sa.CommShare + sa.LoadBalanceShare
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("%v socket %d: attribution shares sum to %g, want 1", place, sa.Socket, sum)
			}
			if sa.Slowdown < 1 {
				t.Errorf("%v socket %d: slowdown %g < 1", place, sa.Socket, sa.Slowdown)
			}
		}
		if totalThreads != len(place) {
			t.Errorf("%v: socket attribution covers %d threads, want %d", place, totalThreads, len(place))
		}
		out := ex.Render()
		if out == "" || !bytes.Contains([]byte(out), []byte("dominant resource")) {
			t.Errorf("%v: Render output missing dominant resource line:\n%s", place, out)
		}
	}

	// Mismatched placement must be rejected, not mis-attributed.
	pred, err := Predict(md, w, workedExamplePlacement(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExplainPrediction(md, pred, placement.Placement{{Socket: 0, Core: 0, Slot: 0}}); err == nil {
		t.Error("ExplainPrediction accepted a placement of the wrong size")
	}
	if _, err := ExplainPrediction(md, nil, nil); err == nil {
		t.Error("ExplainPrediction accepted a nil prediction")
	}
}

// TestPredictMetrics checks the counter/histogram wiring on the predict
// paths: totals, the iteration histogram, and the degraded-fallback count.
func TestPredictMetrics(t *testing.T) {
	reg := obs.Default()
	base := reg.Snapshot()
	md := toyMachine()
	w := exampleWorkload()
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	place := workedExamplePlacement()
	pred, err := p.Predict(place)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictTime(place); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("core.predict.total") - base.Counter("core.predict.total"); got != 2 {
		t.Errorf("core.predict.total grew by %d, want 2", got)
	}
	hb, ha := base.Histogram("core.predict.iterations"), snap.Histogram("core.predict.iterations")
	var before int64
	if hb != nil {
		before = hb.Count
	}
	if ha == nil || ha.Count-before != 2 {
		t.Errorf("iteration histogram grew by %v, want 2", ha)
	}
	if pred.Iterations < 1 {
		t.Fatalf("no iterations recorded: %+v", pred)
	}

	// A non-converging degraded solve must bump the fallback counter.
	wBad := exampleWorkload()
	wBad.Name = "osc"
	before = reg.Snapshot().Counter("core.predict.degraded_fallbacks")
	pd, err := NewPredictor(md, wBad, Options{AllowDegraded: true, MaxIterations: 1, Tolerance: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Predict(place); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("core.predict.degraded_fallbacks") - before; got != 1 {
		t.Errorf("degraded_fallbacks grew by %d, want 1", got)
	}
}

// TestSweepMetricsConcurrent hammers the registry from a forced-parallel
// PredictSweep under -race: the prediction and chunk-claim counters must be
// exact despite concurrent workers, and no goroutine may leak.
func TestSweepMetricsConcurrent(t *testing.T) {
	defer leaktest.Check(t)()
	md := toyMachine()
	w := exampleWorkload()
	places := make([]placement.Placement, 200)
	for i := range places {
		places[i] = workedExamplePlacement()
	}
	reg := obs.Default()
	base := reg.Snapshot()
	got, _, err := predictSweepN(md, w, places, Options{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(places) {
		t.Fatalf("sweep returned %d results", len(got))
	}
	snap := reg.Snapshot()
	if d := snap.Counter("core.sweep.predictions") - base.Counter("core.sweep.predictions"); d != int64(len(places)) {
		t.Errorf("core.sweep.predictions grew by %d, want %d", d, len(places))
	}
	wantChunks := int64((len(places) + sweepChunk - 1) / sweepChunk)
	if d := snap.Counter("core.sweep.chunk_claims") - base.Counter("core.sweep.chunk_claims"); d != wantChunks {
		t.Errorf("core.sweep.chunk_claims grew by %d, want %d", d, wantChunks)
	}
	if d := snap.Counter("core.predict.total") - base.Counter("core.predict.total"); d != int64(len(places)) {
		t.Errorf("core.predict.total grew by %d, want %d", d, len(places))
	}
}

// TestTraceLabels pins the resolver output used by every export: paper-§5
// resource naming, including the dense-pair-index round trip for
// interconnect links.
func TestTraceLabels(t *testing.T) {
	md := toyMachine()
	labels := TraceLabels(md, nil)
	if got := labels.Job(3); got != "job 3" {
		t.Errorf("Job(3) = %q", got)
	}
	if got := labels.Resource(int32(topology.ResDRAM), 1); got != "dram[1]" {
		t.Errorf("Resource(dram,1) = %q", got)
	}
	pair := int32(md.Topo.PairIndex(0, 1))
	if got := labels.Resource(int32(topology.ResInterconnect), pair); got != "interconnect[s0<->s1]" {
		t.Errorf("Resource(interconnect, %d) = %q", pair, got)
	}
	if got := labels.Load(int(topology.ResL3Agg)); got != "l3-agg" {
		t.Errorf("Load(l3-agg slot) = %q", got)
	}
	if got := labels.Load(topology.NumResourceKinds); got != "" {
		t.Errorf("Load(beyond kinds) = %q, want empty", got)
	}
}
