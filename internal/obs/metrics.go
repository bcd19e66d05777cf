// Package obs is the repository's observability layer: typed metrics with
// lock-free hot-path updates, an injected-clock contract for every
// timestamp, and a preallocated ring-buffer solver tracer with Chrome
// trace_event and JSONL exporters.
//
// The package is stdlib-only and deliberately generic: it knows nothing
// about predictions, placements, or machines. The prediction core, the
// scheduler, and the fault-measurement pipeline register their metrics here
// and thread a Tracer through the solver; the eval harness and the CLIs
// snapshot and export.
//
// Two cost rules govern the design (DESIGN.md §9):
//
//   - Metric updates are single atomic operations — no locks, no maps, no
//     allocations on the hot path. Handles are looked up (under a mutex)
//     once, at package init or experiment setup, never per event.
//   - A nil or disabled Tracer costs exactly one branch at each
//     instrumentation site. Nothing is computed, boxed, or allocated for a
//     trace that nobody is collecting; the zero-allocation predictor fast
//     path is pinned by TestPredictTimeZeroAllocs with a disabled tracer
//     wired in.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count with lock-free updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//pandia:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
//
//pandia:noalloc
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins float64 with lock-free updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
//
//pandia:noalloc
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last recorded value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution with lock-free observation.
// Bucket i counts observations v <= Bounds[i]; the final implicit bucket
// counts overflows. Bounds are fixed at construction so Observe needs no
// resizing, no locks, and no allocation.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a detached histogram (most callers want
// Registry.Histogram instead). Bounds must be strictly increasing.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("obs: histogram bounds must be strictly increasing (bound %d: %g after %g)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}, nil
}

// Observe records one value. NaN observations are dropped (they would
// poison Sum and match no bucket).
//
//pandia:noalloc
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Buckets are few and fixed: a linear scan beats binary search for the
	// bucket counts this package uses and keeps the path branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// IterationBuckets is the bucket ladder used for solver iteration counts:
// roughly exponential up to the predictor's default 1000-iteration cap.
func IterationBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000}
}

// Registry holds named metrics. Lookup (get-or-create) takes a mutex and is
// meant for init-time wiring; the returned handles are then updated
// lock-free. A Registry is safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	//pandia:guardedby(mu)
	counters map[string]*Counter
	//pandia:guardedby(mu)
	gauges map[string]*Gauge
	//pandia:guardedby(mu)
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry the instrumented packages
// (core, scheduler, faults) register into at init.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later calls return the existing histogram regardless of the
// bounds argument; invalid bounds on first use panic, because metric wiring
// is init-time code and a misdeclared bucket ladder is a programming error.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		var err error
		h, err = NewHistogram(bounds)
		if err != nil {
			panic(fmt.Sprintf("obs: histogram %q: %v", name, err))
		}
		r.histograms[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place. Handles held by
// instrumented code stay valid — only the values reset — so experiments can
// measure deltas over a shared registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters { //detflow:ignore zeroing every entry; order cannot matter
		c.v.Store(0)
	}
	for _, g := range r.gauges { //detflow:ignore zeroing every entry; order cannot matter
		g.bits.Store(0)
	}
	for _, h := range r.histograms { //detflow:ignore zeroing every entry; order cannot matter
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Counts[i] is the number of
// observations <= Bounds[i]; the final element of Counts is the overflow
// bucket, so len(Counts) == len(Bounds)+1.
type HistogramValue struct {
	Name   string    `json:"name"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Mean returns the mean observed value (0 with no observations).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, sorted by metric name so
// JSON exports and golden tests are deterministic.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Counter returns the named counter's value in the snapshot (0 if absent).
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value in the snapshot (0 if absent).
func (s *Snapshot) Gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram in the snapshot (nil if absent).
func (s *Snapshot) Histogram(name string) *HistogramValue {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// DeltaFrom returns the counter movement between prev and s as a sorted
// name→delta map, dropping zero deltas. Only counters participate: they are
// monotone, so a delta is meaningful across any window; gauges are absolute
// readings and histograms carry distributions, neither of which subtracts
// into a stable per-window value (and both would leak warm-process state
// into replayed incident windows). Counters absent from prev are treated as
// having been 0. A nil prev yields every nonzero counter in s.
func (s *Snapshot) DeltaFrom(prev *Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range s.Counters {
		var before int64
		if prev != nil {
			before = prev.Counter(c.Name)
		}
		if d := c.Value - before; d != 0 {
			out[c.Name] = d
		}
	}
	return out
}

// Snapshot copies the registry's current values. Metric updates running
// concurrently land in this snapshot or the next; each individual value is
// read atomically.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Snapshot{}
	for name, c := range r.counters { //detflow:ignore collected then sorted by name below
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges { //detflow:ignore collected then sorted by name below
		out.Gauges = append(out.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms { //detflow:ignore collected then sorted by name below
		hv := HistogramValue{
			Name:   name,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		out.Histograms = append(out.Histograms, hv)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}
