package main

import (
	"math"
	"sort"
	"time"

	"pandia/internal/simhw"
)

// layers accumulates the per-layer timings the benchmark takes from
// outside the program, by timing its own calls into each module. A block of
// the timed run resets it and folds it into the run's totals afterwards.
type layers struct {
	// simRuns and simTime are testbed runs seen through timedRunner.
	simRuns int64
	simTime time.Duration
	// measureRuns and measureTime cover Harness.MeasureAll, whose body is
	// nothing but testbed runs on the harness's own testbed, one per
	// returned time.
	measureRuns int64
	measureTime time.Duration
	predictTime time.Duration
	curves      int64
	recommendMs *hist
	schedUs     map[string]*hist
	shapes      int64
	submits     int64
	rejections  int64
}

func newLayers() *layers {
	return &layers{recommendMs: new(hist), schedUs: make(map[string]*hist)}
}

func (l *layers) reset() { *l = *newLayers() }

// add folds another block's timings into l.
func (l *layers) add(o *layers) {
	l.simRuns += o.simRuns
	l.simTime += o.simTime
	l.measureRuns += o.measureRuns
	l.measureTime += o.measureTime
	l.predictTime += o.predictTime
	l.curves += o.curves
	l.recommendMs.merge(o.recommendMs)
	for k, v := range o.schedUs {
		l.series(k).merge(v)
	}
	l.shapes += o.shapes
	l.submits += o.submits
	l.rejections += o.rejections
}

func (l *layers) series(op string) *hist {
	h := l.schedUs[op]
	if h == nil {
		h = new(hist)
		l.schedUs[op] = h
	}
	return h
}

// sched times one scheduler call into the named latency series.
func (l *layers) sched(op string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.series(op).add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	return err
}

// timedRunner is the simhw.Runner handed to the profiler and the machine
// describer: it forwards every run to the testbed and records its count
// and wall time.
type timedRunner struct {
	simhw.Runner
	lay *layers
}

func (r timedRunner) Run(cfg simhw.RunConfig) (simhw.RunResult, error) {
	t0 := time.Now()
	res, err := r.Runner.Run(cfg)
	r.lay.simTime += time.Since(t0)
	r.lay.simRuns++
	return res, err
}

// hist is a histogram with logarithmic buckets 1% wide. Its memory is
// fixed whatever the op count, so the benchmark's bookkeeping does not grow
// the heap it measures.
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	// histMin is the smallest value resolved, in the unit recorded; the
	// buckets then reach histMin × histGrowth^histBuckets (about 1e6).
	histMin     = 1e-6
	histGrowth  = 1.01
	histBuckets = 2800
)

var logGrowth = math.Log(histGrowth)

func (h *hist) add(v float64) {
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated by rank inside its bucket
// (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var below int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(below+c) > rank {
			lo := histMin * math.Pow(histGrowth, float64(i))
			frac := (rank - float64(below) + 0.5) / float64(c)
			return lo * (1 + (histGrowth-1)*frac)
		}
		below += c
	}
	return histMin * math.Pow(histGrowth, histBuckets)
}

// percentile is the linearly interpolated q-quantile of values (NaN when
// empty).
func percentile(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
