package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
)

// Predictor is a reusable prediction pipeline for one workload on one
// machine. Construction validates (and under Options.AllowDegraded repairs)
// the machine description and workload once; every subsequent call binds a
// placement to pre-allocated engine scratch, so the steady state allocates
// nothing beyond the caller-visible result. PredictTime, which returns a
// value, allocates nothing at all.
//
// A Predictor is not safe for concurrent use: it owns one engine's scratch.
// Concurrent sweeps use one Predictor per worker (see PredictSweep).
type Predictor struct {
	md  *machine.Description
	w   *Workload
	opt Options
	e   *engine

	// baseReasons records the construction-time repairs made under
	// AllowDegraded; they prefix every prediction's DegradedReasons.
	baseReasons []string

	// pw is the engine's one-element workload binding, kept inline so
	// Predict/PredictTime never allocate a slice per call.
	pw [1]PlacedWorkload
}

// NewPredictor validates the inputs once and allocates the engine state for
// repeated predictions of w on md. With opt.AllowDegraded, repairable
// defects in w or md are fixed on private copies and recorded; they surface
// as DegradedReasons on every prediction. The caller's w and md are never
// modified and may not be mutated while the Predictor is in use.
func NewPredictor(md *machine.Description, w *Workload, opt Options) (*Predictor, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil workload")
	}
	var reasons []string
	if opt.AllowDegraded {
		if err := w.Validate(); err != nil {
			wr := *w
			reasons = append(reasons, wr.Repair()...)
			w = &wr
		}
		if err := md.Validate(); err != nil {
			mdr := *md
			reasons = append(reasons, mdr.Repair(w.Demand)...)
			md = &mdr
		}
	}
	e, err := newEngineState(md)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{md: md, w: w, opt: opt, e: e, baseReasons: reasons}, nil
}

// Workload returns the workload the predictor was built for (the repaired
// copy when construction repaired it).
func (p *Predictor) Workload() *Workload { return p.w }

// Machine returns the machine description the predictor was built for (the
// repaired copy when construction repaired it).
func (p *Predictor) Machine() *machine.Description { return p.md }

// Predict runs the full prediction for one placement. The result is
// identical to core.Predict(md, w, place, opt) — the package-level function
// is implemented on top of this method.
func (p *Predictor) Predict(place placement.Placement) (*Prediction, error) {
	p.pw[0] = PlacedWorkload{Workload: p.w, Placement: place}
	if err := p.e.bind(p.pw[:], false); err != nil {
		return nil, err
	}
	iters, converged := p.e.iterate(p.opt)
	metPredictions.Inc()
	metIterations.Observe(float64(iters))
	reasons := p.baseReasons
	var pred *Prediction
	if !converged && p.opt.AllowDegraded {
		// The fixed point did not stabilise: fall back to the contention-free
		// Amdahl model rather than report a mid-oscillation state.
		metDegraded.Inc()
		reasons = append(reasons[:len(reasons):len(reasons)], fmt.Sprintf(
			"prediction for %q did not converge after %d iterations; Amdahl-only fallback", p.w.Name, iters))
		pred = amdahlOnly(p.w, len(place), iters)
	} else {
		p.e.accumulate() // refresh loads at the converged utilisations
		var err error
		pred, err = p.e.jobs[0].prediction(iters, converged, p.e.loadsMap())
		if err != nil {
			return nil, err
		}
		var worst [obs.MaxLoadKinds]float64
		pred.WorstResource, pred.WorstOversubscription = p.e.loadSummary(&worst)
		if invariantChecks.Load() && p.e.invErr != nil {
			return nil, p.e.invErr
		}
	}
	if len(reasons) > 0 {
		pred.Degraded = true
		pred.DegradedReasons = reasons
	}
	if invariantChecks.Load() {
		if err := CheckInvariants(p.w, p.md, pred); err != nil {
			return nil, err
		}
	}
	return pred, nil
}

// TimePrediction is the fast path's value-typed result: the converged time
// and speedup without the per-thread detail vectors or the load map.
type TimePrediction struct {
	// Time is the predicted execution time in seconds.
	Time float64
	// Speedup is the predicted speedup relative to the single-thread run.
	Speedup float64
	// Iterations and Converged describe the refinement loop.
	Iterations int
	Converged  bool
	// Degraded marks a best-effort prediction under Options.AllowDegraded.
	Degraded bool
	// Pruned marks a placement PredictSweepPruned skipped under the Amdahl
	// dominance bound instead of solving; the other fields are zero.
	Pruned bool
}

// PredictTime predicts one placement and returns only the time and speedup.
// It runs the identical fixed-point iteration as Predict — Time and Speedup
// are bit-for-bit the same — but skips assembling the per-thread result
// vectors and the load map, so the steady state performs zero heap
// allocations. When the runtime invariant checks are enabled it routes
// through the full path so the checks see a complete prediction.
//
// With Options.Cache attached, the solve is memoized under the canonical
// content hash (DESIGN.md §12): a hit returns the exact previously computed
// value — bit-identical to the cold solve — without binding or iterating,
// and still without allocating. The machine and workload content is hashed
// on every call, so mutating either can never serve a stale entry.
//
// The zero-allocation property is proven statically by alloccheck (and
// pinned at runtime by TestPredictTimeZeroAllocs and the bench-gate):
//
//pandia:noalloc
func (p *Predictor) PredictTime(place placement.Placement) (TimePrediction, error) {
	if invariantChecks.Load() {
		pred, err := p.Predict(place) //alloccheck:ok invariant-check mode deliberately routes through the allocating full path
		if err != nil {
			return TimePrediction{}, err
		}
		return TimePrediction{
			Time:       pred.Time,
			Speedup:    pred.Speedup,
			Iterations: pred.Iterations,
			Converged:  pred.Converged,
			Degraded:   pred.Degraded,
		}, nil
	}
	c := p.opt.Cache
	if c == nil {
		return p.predictTimeCold(place)
	}
	key, verify := p.cacheKey(place)
	if tp, ok := c.lookup(key, verify); ok {
		return tp, nil
	}
	tp, err := p.predictTimeCold(place)
	if err != nil {
		return TimePrediction{}, err
	}
	c.store(key, verify, tp) //alloccheck:ok the store runs only on the miss path, which already paid for a full solve
	return tp, nil
}

// cacheKey derives the canonical cache key and verifier digest for one
// placement: cache epoch, full machine and workload content, the options
// fingerprint, and the placement's contexts.
//
//pandia:noalloc
func (p *Predictor) cacheKey(place placement.Placement) (uint64, uint64) {
	h := newCanonHash()
	h.word(p.opt.Cache.epoch.Load())
	h.machine(p.md)
	h.workload(p.w)
	h.options(p.opt)
	h.placement(place)
	return h.key, h.verify
}

// predictTimeCold is the uncached fast path: bind, iterate, read the
// speedup.
//
//pandia:noalloc
func (p *Predictor) predictTimeCold(place placement.Placement) (TimePrediction, error) {
	p.pw[0] = PlacedWorkload{Workload: p.w, Placement: place}
	if err := p.e.bind(p.pw[:], false); err != nil {
		return TimePrediction{}, err
	}
	iters, converged := p.e.iterate(p.opt)
	metPredictions.Inc()
	metIterations.Observe(float64(iters))
	if !converged && p.opt.AllowDegraded {
		metDegraded.Inc()
		sp := p.w.AmdahlSpeedup(len(place))
		return TimePrediction{
			Time:       SafeDiv(p.w.T1, sp, p.w.T1),
			Speedup:    sp,
			Iterations: iters,
			Converged:  false,
			Degraded:   true,
		}, nil
	}
	speedup, err := p.e.jobs[0].speedup()
	if err != nil {
		return TimePrediction{}, err
	}
	return TimePrediction{
		Time:       p.w.T1 / speedup, //nanguard:ok speedup() errors unless speedup > 0
		Speedup:    speedup,
		Iterations: iters,
		Converged:  converged,
		Degraded:   len(p.baseReasons) > 0,
	}, nil
}

// sweepChunk is the number of consecutive placements a sweep worker claims
// per counter increment. Chunking amortises the atomic traffic while staying
// fine-grained enough to balance uneven placement sizes.
const sweepChunk = 16

// SweepWorkers returns the worker count PredictSweep would use for n
// placements: GOMAXPROCS capped at the item count.
func SweepWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PredictSweep predicts every placement with the fast path, in parallel.
// Each worker owns a pooled Predictor, claims chunks of the index space from
// an atomic counter, and writes results into its own slots, so the output is
// deterministic regardless of scheduling. The first error stops the sweep.
func PredictSweep(md *machine.Description, w *Workload, places []placement.Placement, opt Options) ([]TimePrediction, error) {
	return predictSweepN(md, w, places, opt, SweepWorkers(len(places)))
}

// predictSweepN is PredictSweep with an explicit worker count, so tests can
// force parallel execution on single-CPU machines.
func predictSweepN(md *machine.Description, w *Workload, places []placement.Placement, opt Options, workers int) ([]TimePrediction, error) {
	out := make([]TimePrediction, len(places))
	if len(places) == 0 {
		return out, nil
	}
	if workers <= 1 {
		p, err := NewPredictor(md, w, opt)
		if err != nil {
			return nil, err
		}
		for i, place := range places {
			tp, err := p.PredictTime(place)
			if err != nil {
				return nil, err
			}
			out[i] = tp
		}
		metSweepPreds.Add(int64(len(places)))
		metSweepPerWkr.Observe(float64(len(places)))
		return out, nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		stop.Store(true)
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewPredictor(md, w, opt)
			if err != nil {
				fail(err)
				return
			}
			done, err := sweepChunks(p, places, out, &next, &stop)
			// Sweep metrics accumulate in the worker-local counter and flush
			// once at exit: one atomic per chunk claim, two per worker
			// lifetime, nothing per prediction.
			metSweepPreds.Add(done)
			metSweepPerWkr.Observe(float64(done))
			if err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// sweepChunks is one sweep worker's claim loop: it claims chunks of the
// index space from the shared counter and predicts each placement with the
// fast path, writing into the worker's own output slots. It returns the
// number of predictions completed. Factored out of the goroutine literal so
// the per-prediction loop is a named, statically provable function.
//
//pandia:noalloc
func sweepChunks(p *Predictor, places []placement.Placement, out []TimePrediction, next *atomic.Int64, stop *atomic.Bool) (int64, error) {
	var done int64
	for !stop.Load() {
		lo := int(next.Add(sweepChunk)) - sweepChunk
		if lo >= len(places) {
			break
		}
		metSweepChunks.Inc()
		hi := lo + sweepChunk
		if hi > len(places) {
			hi = len(places)
		}
		for i := lo; i < hi; i++ {
			tp, err := p.PredictTime(places[i])
			if err != nil {
				return done, err
			}
			out[i] = tp
			done++
		}
	}
	return done, nil
}

// SweepStats reports a pruned sweep's work split: Evaluated placements were
// solved (or served from the cache), Pruned placements were skipped because
// their Amdahl dominance bound could not reach the incumbent (DESIGN.md
// §12). In a parallel sweep the split depends on how fast the incumbent
// rises across workers, so the counts can vary run-to-run; the sweep's
// selected results never do.
type SweepStats struct {
	Evaluated, Pruned int64
}

// PruneRate is Pruned over the total placement count, 0 when empty.
func (s SweepStats) PruneRate() float64 {
	if total := s.Evaluated + s.Pruned; total > 0 {
		return float64(s.Pruned) / float64(total)
	}
	return 0
}

// PredictSweepPruned is PredictSweep with the best-so-far dominance bound:
// a placement whose Amdahl-only speedup bound is strictly below frac times
// the incumbent best speedup is skipped without solving, because the model
// guarantees Speedup <= AmdahlSpeedup (slowdowns are >= 1), so it can
// neither become the best placement nor reach a frac-of-best target.
// Skipped slots are returned as zero TimePredictions with Pruned set; every
// evaluated slot is bit-identical to the full sweep's.
//
// The sweep first solves the placement with the highest Amdahl bound (the
// lowest index on ties) to seed the incumbent, then sweeps the rest in
// parallel. frac outside (0, 1] is clamped to 1 — prune only what cannot
// beat the incumbent at all.
func PredictSweepPruned(md *machine.Description, w *Workload, places []placement.Placement, opt Options, frac float64) ([]TimePrediction, SweepStats, error) {
	out := make([]TimePrediction, len(places))
	var stats SweepStats
	if len(places) == 0 {
		return out, stats, nil
	}
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	if err := w.Validate(); err != nil {
		return nil, stats, err
	}

	// Seed: the highest-bound placement is never prunable, so solving it
	// first gives every other placement a strong incumbent to beat.
	seed := 0
	seedBound := w.AmdahlSpeedup(len(places[0]))
	for i := 1; i < len(places); i++ {
		if b := w.AmdahlSpeedup(len(places[i])); b > seedBound {
			seed, seedBound = i, b
		}
	}
	p, err := NewPredictor(md, w, opt)
	if err != nil {
		return nil, stats, err
	}
	tp, err := p.PredictTime(places[seed])
	if err != nil {
		return nil, stats, err
	}
	out[seed] = tp
	stats.Evaluated++
	metSweepPreds.Inc()
	var best atomic.Uint64
	best.Store(math.Float64bits(tp.Speedup))

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		eval     atomic.Int64
		pruned   atomic.Int64
	)
	workers := SweepWorkers(len(places))
	if workers <= 1 {
		done, skipped, err := sweepChunksPruned(p, places, out, seed, frac, &best, &next, &stop)
		stats.Evaluated += done
		stats.Pruned += skipped
		metSweepPreds.Add(done)
		metSweepPruned.Add(skipped)
		metSweepPerWkr.Observe(float64(done + 1))
		return out, stats, err
	}

	fail := func(err error) {
		stop.Store(true)
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(first bool) {
			defer wg.Done()
			wp := p
			if !first {
				var err error
				wp, err = NewPredictor(md, w, opt)
				if err != nil {
					fail(err)
					return
				}
			}
			done, skipped, err := sweepChunksPruned(wp, places, out, seed, frac, &best, &next, &stop)
			eval.Add(done)
			pruned.Add(skipped)
			metSweepPreds.Add(done)
			metSweepPruned.Add(skipped)
			metSweepPerWkr.Observe(float64(done))
			if err != nil {
				fail(err)
			}
		}(wk == 0)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
	}
	stats.Evaluated += eval.Load()
	stats.Pruned += pruned.Load()
	return out, stats, nil
}

// sweepChunksPruned is one pruned-sweep worker's claim loop: each claimed
// placement is either skipped under the dominance bound (Amdahl bound below
// frac of the incumbent) or predicted on the fast path, raising the
// incumbent. The seed index was solved before the workers started and is
// skipped here.
//
//pandia:noalloc
func sweepChunksPruned(p *Predictor, places []placement.Placement, out []TimePrediction, seed int, frac float64, best *atomic.Uint64, next *atomic.Int64, stop *atomic.Bool) (done, pruned int64, err error) {
	for !stop.Load() {
		lo := int(next.Add(sweepChunk)) - sweepChunk
		if lo >= len(places) {
			break
		}
		metSweepChunks.Inc()
		hi := lo + sweepChunk
		if hi > len(places) {
			hi = len(places)
		}
		for i := lo; i < hi; i++ {
			if i == seed {
				continue
			}
			bound := p.w.AmdahlSpeedup(len(places[i]))
			if bound < frac*math.Float64frombits(best.Load()) {
				out[i] = TimePrediction{Pruned: true}
				pruned++
				continue
			}
			tp, err := p.PredictTime(places[i])
			if err != nil {
				return done, pruned, err
			}
			out[i] = tp
			done++
			// Monotone max over positive float bits (IEEE ordering matches
			// unsigned ordering for non-negative values).
			bits := math.Float64bits(tp.Speedup)
			for {
				cur := best.Load()
				if bits <= cur || best.CompareAndSwap(cur, bits) {
					break
				}
			}
		}
	}
	return done, pruned, nil
}

// CoPredictor is the reusable joint-prediction pipeline: one engine's
// scratch re-bound to successive co-schedules of the same machine. The
// scheduler uses one per Scheduler instance, under its lock, to evaluate
// candidate placements without rebuilding the engine each time; repeated
// mixes are memoized one layer up, in the scheduler's CoCache.
//
// A CoPredictor is not safe for concurrent use.
type CoPredictor struct {
	md  *machine.Description
	e   *engine
	opt Options
}

// NewCoPredictor validates the machine once and allocates the joint engine
// state.
func NewCoPredictor(md *machine.Description, opt Options) (*CoPredictor, error) {
	e, err := newEngineState(md)
	if err != nil {
		return nil, err
	}
	return &CoPredictor{md: md, e: e, opt: opt}, nil
}

// Options returns the options every Predict call of this CoPredictor uses.
func (cp *CoPredictor) Options() Options { return cp.opt }

// SetSpan stamps subsequent Predict calls' trace events with the given
// decision id (Options.SpanID): the scheduler sets it before each joint
// solve so solver iterations join the operation's span in the trace
// stream. It changes no prediction and no cache key (SpanID is excluded
// from the canonical hash).
func (cp *CoPredictor) SetSpan(id int64) { cp.opt.SpanID = id }

// Predict jointly predicts the placed workloads. The result is identical to
// core.PredictCoSchedule(md, placed, opt) — the package-level function is
// implemented on the same bind-and-solve tail — but reuses the engine's
// scratch instead of allocating it per call.
func (cp *CoPredictor) Predict(placed []PlacedWorkload) (*CoPrediction, error) {
	if err := cp.e.bind(placed, true); err != nil {
		return nil, err
	}
	return coPrediction(cp.md, cp.e, cp.opt)
}
