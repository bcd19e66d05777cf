// Package eval reproduces the paper's evaluation (§6): measured-versus-
// predicted placement curves for every workload (Figs. 1, 10, 13), error
// summaries (Figs. 11-12), the Turbo Boost study (Fig. 14), and the
// best-placement and sweep-baseline tables of §6.1 and §6.3.
package eval

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pandia/internal/bench"
	"pandia/internal/core"
	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/simhw"
	"pandia/internal/workload"
)

// Harness binds one simulated machine to everything the experiments need:
// its measured description, the canonical placement set under evaluation,
// and caches of profiles, measured run times and placement curves. It is
// safe for concurrent use.
type Harness struct {
	// Key is the machine's model code ("x5-2", ...).
	Key string
	// TB is the simulated machine.
	TB *simhw.Testbed
	// MD is its measured description.
	MD *machine.Description
	// Shapes is the evaluation placement set: the canonical space, sampled
	// down on large machines, always including the sweep placements so the
	// §6.3 comparison is meaningful.
	Shapes []placement.Shape
	// Seed drives sampling and measurement noise.
	Seed int64

	// places holds each shape's expanded placement, aligned with Shapes.
	// Expanding once here keeps MeasureAll, PredictAll, PredictAllDegraded,
	// and the ablation loops from re-deriving the same placements per sweep.
	places []placement.Placement

	mu sync.Mutex
	//pandia:guardedby(mu)
	profiles map[string]*workload.Profile
	//pandia:guardedby(mu)
	measured map[string][]float64 // workload name -> times aligned with Shapes
	//pandia:guardedby(mu)
	curves map[string]*Curve // workload name -> CurveFor's curve
}

// DefaultMaxPlacements mirrors the paper's coverage: exhaustive on the
// small machines, ~20% samples (a few thousand placements) on the large
// ones (§6.1-6.2).
func DefaultMaxPlacements(key string) int {
	switch key {
	case "x5-2", "x2-4":
		return 3000
	default:
		return 0 // exhaustive
	}
}

// NewHarness builds the harness for one of the preset machines.
func NewHarness(key string, maxPlacements int, seed int64) (*Harness, error) {
	truths := simhw.Truths()
	mt, ok := truths[key]
	if !ok {
		return nil, fmt.Errorf("eval: unknown machine %q", key)
	}
	tb, err := simhw.NewTestbed(mt)
	if err != nil {
		return nil, err
	}
	md, err := machine.Describe(tb)
	if err != nil {
		return nil, err
	}
	topo := tb.Machine()
	shapes := placement.Enumerate(topo)
	if maxPlacements > 0 {
		shapes = placement.Sample(shapes, maxPlacements, seed)
	}
	// Keep the sweep placements in the evaluation set.
	have := make(map[string]bool, len(shapes))
	for _, s := range shapes {
		have[s.Key()] = true
	}
	for _, s := range placement.SweepShapes(topo) {
		if !have[s.Key()] {
			shapes = append(shapes, s)
			have[s.Key()] = true
		}
	}
	placement.SortShapes(shapes)
	return &Harness{
		Key: key, TB: tb, MD: md, Shapes: shapes, Seed: seed,
		places:   placement.ExpandAll(shapes),
		profiles: make(map[string]*workload.Profile),
		measured: make(map[string][]float64),
		curves:   make(map[string]*Curve),
	}, nil
}

// Placements returns the expanded placement of every evaluation shape,
// aligned with Shapes. The slice and the placements it holds are shared and
// must not be modified.
func (h *Harness) Placements() []placement.Placement { return h.places }

// cachedProfile fetches a cached profile under the lock.
func (h *Harness) cachedProfile(name string) (*workload.Profile, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.profiles[name]
	return p, ok
}

func (h *Harness) storeProfile(name string, p *workload.Profile) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.profiles[name] = p
}

// Profile returns the workload's six-run profile, cached per workload.
func (h *Harness) Profile(e bench.Entry) (*workload.Profile, error) {
	if p, ok := h.cachedProfile(e.Name); ok {
		return p, nil
	}
	prof, err := (&workload.Profiler{TB: h.TB, MD: h.MD, Seed: h.Seed}).Profile(e.Truth)
	if err != nil {
		return nil, err
	}
	h.storeProfile(e.Name, prof)
	return prof, nil
}

// MeasureAll runs the workload on every evaluation shape, returning times
// aligned with h.Shapes. Results are cached per workload.
func (h *Harness) MeasureAll(e bench.Entry) ([]float64, error) {
	if m, ok := h.cachedMeasurement(e.Name); ok {
		return m, nil
	}

	times := make([]float64, len(h.Shapes))
	err := parallelEach(len(h.Shapes), func(i int) error {
		res, err := h.TB.Run(simhw.RunConfig{
			Workload:  e.Truth,
			Placement: h.places[i],
			Power:     simhw.PowerFilled,
			Seed:      h.Seed,
		})
		if err != nil {
			return fmt.Errorf("eval: measuring %s on %v: %w", e.Name, h.Shapes[i], err)
		}
		times[i] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	h.storeMeasurement(e.Name, times)
	return times, nil
}

// cachedMeasurement fetches cached shape timings under the lock.
func (h *Harness) cachedMeasurement(name string) ([]float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.measured[name]
	return m, ok
}

func (h *Harness) storeMeasurement(name string, times []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.measured[name] = times
}

// PredictAll predicts the workload on every evaluation shape using the
// given description (possibly from another machine, for the portability
// experiments), returning times aligned with h.Shapes. The sweep runs on
// the fast prediction path with per-worker pooled predictors.
func (h *Harness) PredictAll(w *core.Workload) ([]float64, error) {
	preds, err := core.PredictSweep(h.MD, w, h.places, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("eval: predicting %s on %s: %w", w.Name, h.Key, err)
	}
	times := make([]float64, len(preds))
	for i, p := range preds {
		times[i] = p.Time
	}
	return times, nil
}

// PredictAllDegraded is PredictAll with core degraded mode enabled: defects
// in the description are repaired pessimistically and non-convergence falls
// back to the Amdahl-only model instead of failing the whole sweep. It
// additionally returns how many of the predictions were degraded.
func (h *Harness) PredictAllDegraded(w *core.Workload) ([]float64, int, error) {
	preds, err := core.PredictSweep(h.MD, w, h.places, core.Options{AllowDegraded: true})
	if err != nil {
		return nil, 0, fmt.Errorf("eval: degraded prediction of %s on %s: %w", w.Name, h.Key, err)
	}
	times := make([]float64, len(preds))
	degraded := 0
	for i, p := range preds {
		times[i] = p.Time
		if p.Degraded {
			degraded++
		}
	}
	return times, degraded, nil
}

// Curve is one workload's measured-versus-predicted placement curve
// (Figs. 1 and 10): times aligned with the harness's shape set.
type Curve struct {
	Machine   string
	Workload  string
	Shapes    []placement.Shape
	Measured  []float64
	Predicted []float64
	// ProfileCost is the machine time the six profiling runs took.
	ProfileCost float64
	// Description is the profiled workload model used for the predictions.
	Description core.Workload
}

// CurveFor profiles the workload on this machine and evaluates the full
// placement curve. The curve is cached per workload and shared between
// callers, which must not modify it.
func (h *Harness) CurveFor(e bench.Entry) (*Curve, error) {
	if c, ok := h.cachedCurve(e.Name); ok {
		return c, nil
	}
	prof, err := h.Profile(e)
	if err != nil {
		return nil, err
	}
	c, err := h.CurveWith(e, &prof.Workload, prof.Cost)
	if err != nil {
		return nil, err
	}
	h.storeCurve(e.Name, c)
	return c, nil
}

// cachedCurve fetches a cached curve under the lock.
func (h *Harness) cachedCurve(name string) (*Curve, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.curves[name]
	return c, ok
}

func (h *Harness) storeCurve(name string, c *Curve) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.curves[name] = c
}

// CurveWith evaluates the placement curve using an externally supplied
// workload description (the portability experiments of Fig. 11c-d). Unlike
// CurveFor it predicts afresh on every call.
func (h *Harness) CurveWith(e bench.Entry, w *core.Workload, profileCost float64) (*Curve, error) {
	meas, err := h.MeasureAll(e)
	if err != nil {
		return nil, err
	}
	pred, err := h.PredictAll(w)
	if err != nil {
		return nil, err
	}
	return &Curve{
		Machine:     h.Key,
		Workload:    e.Name,
		Shapes:      h.Shapes,
		Measured:    meas,
		Predicted:   pred,
		ProfileCost: profileCost,
		Description: *w,
	}, nil
}

// parallelEach runs fn(i) for i in [0,n) across the available CPUs and
// returns the first error.
func parallelEach(n int, fn func(i int) error) error {
	return parallelEachN(n, runtime.GOMAXPROCS(0), fn)
}

// parallelChunk is how many consecutive indices a worker claims per atomic
// increment: large enough to amortise the counter traffic, small enough to
// balance uneven per-item costs.
const parallelChunk = 8

// parallelEachN is parallelEach with an explicit worker count, so tests can
// force parallel execution regardless of GOMAXPROCS. Workers claim chunks of
// the index space from an atomic counter — no per-item channel sends, and no
// blocked senders to leak when a worker bails out early on error. An error
// stops every worker at its next chunk boundary; the first one reported wins.
func parallelEachN(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  atomic.Int64
		stop  atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				lo := int(next.Add(parallelChunk)) - parallelChunk
				if lo >= n {
					return
				}
				hi := lo + parallelChunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if err := fn(i); err != nil {
						stop.Store(true)
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return first
}
