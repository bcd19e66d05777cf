package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
// It runs the pruned sweep's loop with frac 0, under which no placement is
// ever pruned.
func PredictSweep(md *machine.Description, w *Workload, places []placement.Placement, opt Options) ([]TimePrediction, error) {
	out, _, err := predictSweepN(md, w, places, opt, 0, SweepWorkers(len(places)))
	return out, err
}

// SweepStats reports a pruned sweep's work split: Evaluated placements were
// solved, Pruned placements were skipped because their Amdahl dominance
// bound could not reach the incumbent (DESIGN.md §12). In a parallel sweep
// the split depends on how fast the incumbent rises across workers, so the
// counts can vary run-to-run; the sweep's selected results never do.
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
// parallel. frac outside (0, 1], NaN included, is clamped to 1 — prune only
// what cannot beat the incumbent at all.
func PredictSweepPruned(md *machine.Description, w *Workload, places []placement.Placement, opt Options, frac float64) ([]TimePrediction, SweepStats, error) {
	if !(frac > 0 && frac <= 1) {
		frac = 1
	}
	if err := w.Validate(); err != nil {
		return nil, SweepStats{}, err
	}
	return predictSweepN(md, w, places, opt, frac, SweepWorkers(len(places)))
}

// predictSweepN is the sweep behind PredictSweep (frac 0) and
// PredictSweepPruned, with an explicit worker count (at least 1) so tests
// can force parallel execution on single-CPU machines. It solves the seed
// placement on the calling goroutine, then runs that many claim loops, the
// first on the seed's Predictor.
func predictSweepN(md *machine.Description, w *Workload, places []placement.Placement, opt Options, frac float64, workers int) ([]TimePrediction, SweepStats, error) {
	out := make([]TimePrediction, len(places))
	if len(places) == 0 {
		return out, SweepStats{}, nil
	}
	p, err := NewPredictor(md, w, opt)
	if err != nil {
		return nil, SweepStats{}, err
	}

	// Seed: the highest-bound placement is never prunable, so solving it
	// first gives every other placement a strong incumbent to beat. Bounds
	// come from the predictor's workload, which is the repaired copy under
	// AllowDegraded.
	pw := p.Workload()
	seed := 0
	seedBound := pw.AmdahlSpeedup(len(places[0]))
	for i := 1; i < len(places); i++ {
		if b := pw.AmdahlSpeedup(len(places[i])); b > seedBound {
			seed, seedBound = i, b
		}
	}
	tp, err := p.PredictTime(places[seed])
	if err != nil {
		return nil, SweepStats{}, err
	}
	out[seed] = tp
	metSweepPreds.Inc()
	var best atomic.Uint64
	best.Store(math.Float64bits(tp.Speedup))

	var (
		next              atomic.Int64
		stop              atomic.Bool
		evaluated, pruned atomic.Int64
		mu                sync.Mutex
		firstErr          error
		wg                sync.WaitGroup
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
		go func(first bool) {
			defer wg.Done()
			wp, seeded := p, int64(1)
			if !first {
				var err error
				if wp, err = NewPredictor(md, w, opt); err != nil {
					fail(err)
					return
				}
				seeded = 0
			}
			done, skipped, err := sweepChunks(wp, places, out, seed, frac, &best, &next, &stop)
			// Sweep metrics accumulate in the worker-local counters and
			// flush once at exit: one atomic per chunk claim, a few per
			// worker lifetime, nothing per prediction.
			evaluated.Add(done)
			pruned.Add(skipped)
			metSweepPreds.Add(done)
			metSweepPruned.Add(skipped)
			metSweepPerWkr.Observe(float64(done + seeded))
			if err != nil {
				fail(err)
			}
		}(wk == 0)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, SweepStats{}, firstErr
	}
	return out, SweepStats{Evaluated: evaluated.Load() + 1, Pruned: pruned.Load()}, nil
}

// sweepChunks is one sweep worker's claim loop: it claims chunks of the
// index space from the shared counter, and each claimed placement is either
// skipped under the dominance bound (Amdahl bound below frac of the
// incumbent) or predicted on the fast path into the worker's own output
// slot, raising the incumbent. The seed index was solved before the workers
// started and is skipped here. With frac 0 the bound never prunes.
//
//pandia:noalloc
func sweepChunks(p *Predictor, places []placement.Placement, out []TimePrediction, seed int, frac float64, best *atomic.Uint64, next *atomic.Int64, stop *atomic.Bool) (done, pruned int64, err error) {
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

// Score runs the identical joint solve as Predict but returns only the
// CoScore, bit for bit equal to Predict's fields, with the speedups written
// into dst. It assembles no per-thread vectors and no load map, so with a
// dst of len(placed) capacity it allocates nothing. With the runtime
// invariant checks enabled it routes through Predict so the checks see a
// complete prediction.
//
//pandia:noalloc
func (cp *CoPredictor) Score(placed []PlacedWorkload, dst []float64) (CoScore, error) {
	if invariantChecks.Load() {
		co, err := cp.Predict(placed) //alloccheck:ok invariant-check mode deliberately routes through the allocating full path
		if err != nil {
			return CoScore{}, err
		}
		return co.Score(dst), nil //alloccheck:ok invariant-check mode only; dst may grow like the full path's result
	}
	e := cp.e
	if err := e.bind(placed, true); err != nil {
		return CoScore{}, err
	}
	e.iterate(cp.opt)
	e.accumulate() // refresh loads at the converged utilisations
	//alloccheck:ok grows only a too-short caller buffer; a reused one stops growing
	dst = slices.Grow(dst[:0], len(e.jobs))[:len(e.jobs)]
	for i, j := range e.jobs {
		var err error
		if dst[i], err = j.speedup(); err != nil {
			return CoScore{}, err
		}
	}
	var kinds [obs.MaxLoadKinds]float64
	id, worst := e.loadSummary(&kinds)
	return CoScore{Speedups: dst, WorstOversubscription: worst, WorstResource: id}, nil
}
