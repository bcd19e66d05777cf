package eval

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/bench"
	"pandia/internal/obs"
)

func TestNormalize(t *testing.T) {
	norm := Normalize([]float64{100, 50, 200})
	want := []float64{0.5, 1, 0.25}
	for i := range want {
		if math.Abs(norm[i]-want[i]) > 1e-12 {
			t.Errorf("norm[%d] = %g, want %g", i, norm[i], want[i])
		}
	}
}

func TestComputeMetricsPerfect(t *testing.T) {
	times := []float64{10, 5, 20, 8}
	m := ComputeMetrics(times, times)
	if m.MeanErr != 0 || m.MedianErr != 0 || m.OffsetMean != 0 || m.OffsetMedian != 0 {
		t.Errorf("perfect prediction has non-zero errors: %v", m)
	}
}

func TestComputeMetricsConstantOffset(t *testing.T) {
	// A prediction whose normalised curve is a constant distance below the
	// measurement has error > 0 but offset error ~ 0.
	meas := []float64{10, 5, 20, 8, 13, 6}
	pred := make([]float64, len(meas))
	normM := Normalize(meas)
	for i := range pred {
		// Construct predicted times whose normalised value is measured-0.1.
		pred[i] = 1 / (normM[i] - 0.1)
	}
	// Renormalisation pins both curves' maxima to 1, so a pure additive
	// shift cannot survive it; the offset correction still removes most of
	// the systematic part.
	m := ComputeMetrics(meas, pred)
	if m.MeanErr <= m.OffsetMean {
		t.Errorf("offset error (%g) should be below raw error (%g) for a shifted curve",
			m.OffsetMean, m.MeanErr)
	}
}

func TestComputeMetricsDegenerate(t *testing.T) {
	if m := ComputeMetrics(nil, nil); m != (Metrics{}) {
		t.Errorf("empty metrics = %v", m)
	}
	if m := ComputeMetrics([]float64{1, 2}, []float64{1}); m != (Metrics{}) {
		t.Errorf("mismatched metrics = %v", m)
	}
}

func TestMeanMedian(t *testing.T) {
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %g", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

// x32Harness is shared across tests; building it costs one machine
// description plus shape enumeration.
func x32Harness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness("x3-2", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHarnessUnknownMachine(t *testing.T) {
	if _, err := NewHarness("z9", 0, 1); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestCurveQuality(t *testing.T) {
	h := x32Harness(t)
	for _, name := range []string{"MD", "CG", "EP"} {
		e, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := h.CurveFor(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Measured) != len(h.Shapes) || len(c.Predicted) != len(h.Shapes) {
			t.Fatalf("%s: curve sizes wrong", name)
		}
		m := c.Metrics()
		if m.MedianErr > 25 {
			t.Errorf("%s: median error %.1f%%, want < 25%% (paper: ~4-8%%)", name, m.MedianErr)
		}
		// The offset correction targets the mean, so the median can move
		// either way a little; it must stay in the same ballpark.
		if m.OffsetMedian > 1.5*m.MedianErr+1 {
			t.Errorf("%s: offset median %.1f%% far above raw median %.1f%%", name, m.OffsetMedian, m.MedianErr)
		}
		if gap := c.BestGap(); gap < 0 || gap > 15 {
			t.Errorf("%s: best-placement gap %.2f%%, want small and non-negative", name, gap)
		}
		if pt := c.PeakThreads(); pt < 1 || pt > h.TB.Machine().TotalContexts() {
			t.Errorf("%s: peak threads %d out of range", name, pt)
		}
	}
}

func TestCurveCaching(t *testing.T) {
	defer leaktest.Check(t)()
	h := x32Harness(t)
	e, _ := bench.ByName("EP")
	a, err := h.MeasureAll(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.MeasureAll(e)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("measurement cache missed")
	}
}

func TestErrorSummary(t *testing.T) {
	h := x32Harness(t)
	entries := []bench.Entry{}
	for _, n := range []string{"MD", "CG"} {
		e, _ := bench.ByName(n)
		entries = append(entries, e)
	}
	s, err := ErrorSummary(h, entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PerWorkload) != 2 {
		t.Fatalf("summary rows = %d", len(s.PerWorkload))
	}
	if s.MedianErr <= 0 || s.MedianErr > 30 {
		t.Errorf("median error = %.1f%%, implausible", s.MedianErr)
	}
	var buf bytes.Buffer
	if err := RenderSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MD") || !strings.Contains(buf.String(), "median err") {
		t.Errorf("summary rendering incomplete:\n%s", buf.String())
	}
}

func TestTurboStudy(t *testing.T) {
	h, err := NewHarness("x5-2", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := TurboStudy(h.TB)
	if err != nil {
		t.Fatal(err)
	}
	n := h.TB.Machine().TotalContexts()
	if len(tc.TurboIdle) != n || len(tc.TurboBackground) != n || len(tc.Nominal) != n {
		t.Fatalf("turbo curves truncated: %d/%d/%d", len(tc.TurboIdle), len(tc.TurboBackground), len(tc.Nominal))
	}
	// Solo: idle-turbo beats background-filled beats nominal (Fig. 14).
	if !(tc.TurboIdle[0].PerThreadRate > tc.TurboBackground[0].PerThreadRate &&
		tc.TurboBackground[0].PerThreadRate > tc.Nominal[0].PerThreadRate) {
		t.Errorf("solo ordering wrong: %g, %g, %g",
			tc.TurboIdle[0].PerThreadRate, tc.TurboBackground[0].PerThreadRate, tc.Nominal[0].PerThreadRate)
	}
	// With every core busy the turbo lines converge.
	cores := h.TB.Machine().TotalCores()
	last1 := tc.TurboIdle[cores-1].PerThreadRate
	last2 := tc.TurboBackground[cores-1].PerThreadRate
	if math.Abs(last1-last2)/last2 > 0.02 {
		t.Errorf("turbo lines did not converge at full load: %g vs %g", last1, last2)
	}
	// Past one thread per core, SMT halves per-thread throughput.
	full := tc.TurboBackground[n-1].PerThreadRate
	half := tc.TurboBackground[cores-1].PerThreadRate
	if full >= half*0.8 {
		t.Errorf("per-thread rate did not drop with SMT packing: %g vs %g", full, half)
	}
	var buf bytes.Buffer
	if err := RenderTurbo(&buf, tc); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != n+1 {
		t.Errorf("turbo CSV has %d lines, want %d", lines, n+1)
	}
}

func TestSweepStudy(t *testing.T) {
	h := x32Harness(t)
	var entries []bench.Entry
	for _, n := range []string{"MD", "Swim"} {
		e, _ := bench.ByName(n)
		entries = append(entries, e)
	}
	s, err := SweepStudy(h, entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("sweep rows = %d", len(s.Rows))
	}
	for _, r := range s.Rows {
		if r.CostRatio <= 1 {
			t.Errorf("%s: sweep cost ratio %.2f, want > 1 (paper: 4-8x)", r.Workload, r.CostRatio)
		}
		if r.SweepBestGap < 0 {
			t.Errorf("%s: negative sweep gap %.2f", r.Workload, r.SweepBestGap)
		}
	}
	var buf bytes.Buffer
	if err := RenderSweep(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean cost ratio") {
		t.Error("sweep rendering incomplete")
	}
}

func TestFourSocketClasses(t *testing.T) {
	h, err := NewHarness("x2-4", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := bench.ByName("CG")
	rows, err := FourSocket(h, []bench.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	for name, v := range map[string]float64{"two": r.TwoSocket, "twenty": r.TwentyCore, "whole": r.Whole} {
		if v < 0 || v > 120 {
			t.Errorf("%s-class error %.1f%% implausible", name, v)
		}
	}
	var buf bytes.Buffer
	if err := RenderFourSocket(&buf, h.Key, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CG") {
		t.Error("four-socket rendering incomplete")
	}
}

// TestCurveForMemoized checks the per-workload curve memo: a second
// CurveFor returns the first call's curve without sweeping, while CurveWith
// with the same description still predicts every placement.
func TestCurveForMemoized(t *testing.T) {
	h := x32Harness(t)
	e, _ := bench.ByName("EP")
	sweeps := func() int64 { return obs.Default().Snapshot().Counter("core.sweep.predictions") }
	first, err := h.CurveFor(e)
	if err != nil {
		t.Fatal(err)
	}
	before := sweeps()
	second, err := h.CurveFor(e)
	if err != nil {
		t.Fatal(err)
	}
	if d := sweeps() - before; d != 0 {
		t.Errorf("second CurveFor swept %d placements, want 0", d)
	}
	if second != first {
		t.Error("second CurveFor returned a different curve")
	}
	before = sweeps()
	with, err := h.CurveWith(e, &first.Description, first.ProfileCost)
	if err != nil {
		t.Fatal(err)
	}
	if d := sweeps() - before; d != int64(len(h.Shapes)) {
		t.Errorf("CurveWith swept %d placements, want %d", d, len(h.Shapes))
	}
	for i := range with.Predicted {
		if with.Predicted[i] != first.Predicted[i] {
			t.Fatalf("placement %d: CurveWith %v, CurveFor %v", i, with.Predicted[i], first.Predicted[i])
		}
	}
}

func TestCurveCSVAndASCII(t *testing.T) {
	h := x32Harness(t)
	e, _ := bench.ByName("EP")
	c, err := h.CurveFor(e)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCurveCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(c.Shapes)+1 {
		t.Errorf("CSV rows = %d, want %d", len(lines), len(c.Shapes)+1)
	}
	if !strings.HasPrefix(lines[0], "placement,threads") {
		t.Errorf("CSV header = %q", lines[0])
	}
	art := ASCIICurve(c, 60, 12)
	if !strings.Contains(art, "EP") || strings.Count(art, "\n") < 12 {
		t.Errorf("ASCII plot malformed:\n%s", art)
	}
}

func TestPortabilitySmall(t *testing.T) {
	src := x32Harness(t)
	dst, err := NewHarness("x4-2", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := bench.ByName("MD")
	s, err := Portability(src, dst, []bench.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine != "x4-2" || s.Source != "x3-2" {
		t.Errorf("portability labels wrong: %s / %s", s.Machine, s.Source)
	}
	if s.PerWorkload[0].Metrics.MedianErr > 40 {
		t.Errorf("portability error %.1f%% implausibly large", s.PerWorkload[0].Metrics.MedianErr)
	}
}

func TestAblations(t *testing.T) {
	h := x32Harness(t)
	e, _ := bench.ByName("Swim")
	rows, err := Ablations(h, []bench.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Full <= 0 {
		t.Fatal("full-model error missing")
	}
	// Iterating matters for this workload: single-pass must be clearly
	// worse than the full model.
	if r.SinglePass <= r.Full {
		t.Errorf("single-pass %.2f%% not worse than full %.2f%%", r.SinglePass, r.Full)
	}
	var buf bytes.Buffer
	if err := RenderAblations(&buf, h.Key, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "single-pass") {
		t.Error("ablation rendering incomplete")
	}
}

func TestPortabilityRescaled(t *testing.T) {
	src := x32Harness(t)
	dst, err := NewHarness("x5-2", 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := bench.ByName("MD") // compute-bound: instr demand capped on the small machine
	plain, err := Portability(src, dst, []bench.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	rescaled, err := PortabilityRescaled(src, dst, []bench.Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	if rescaled.Source != "x3-2+rescaled" {
		t.Errorf("source label = %q", rescaled.Source)
	}
	// Rescaling must not make the low-to-high direction worse for a
	// workload whose demands were capped at the source.
	if rescaled.PerWorkload[0].Metrics.MedianErr > plain.PerWorkload[0].Metrics.MedianErr+1.0 {
		t.Errorf("rescaling hurt: %.2f%% vs %.2f%%",
			rescaled.PerWorkload[0].Metrics.MedianErr, plain.PerWorkload[0].Metrics.MedianErr)
	}
}

func TestPeaksBelowMax(t *testing.T) {
	h := x32Harness(t)
	swim, _ := bench.ByName("Swim") // saturates well below the full machine
	cs, err := h.CurveFor(swim)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.PeaksBelowMax(h.TB.Machine().TotalContexts(), 0.02) {
		t.Error("Swim should peak below the full machine on the X3-2")
	}
	md, _ := bench.ByName("MD") // compute-bound: wants everything
	cm, err := h.CurveFor(md)
	if err != nil {
		t.Fatal(err)
	}
	if cm.PeaksBelowMax(h.TB.Machine().TotalContexts(), 0.02) {
		t.Error("MD should peak at the full machine on the X3-2")
	}
}
