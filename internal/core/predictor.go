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

	// boundScratch is speedupBound's per-socket scratch, allocated by its
	// first call: threads per socket (zero between calls), then h_s.
	boundScratch []float64
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
		if invariantChecks.Load() {
			if err := CheckInvariants(p.w, p.md, pred); err != nil {
				return nil, err
			}
		}
	} else {
		var one [1]*Prediction
		if err := p.e.assemble(one[:], iters, converged, false); err != nil {
			return nil, err
		}
		pred = one[0]
	}
	if len(reasons) > 0 {
		pred.Degraded = true
		pred.DegradedReasons = reasons
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
	// Pruned marks a placement PredictSweepPruned skipped under the lockstep
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

// boundSlack widens the dominance bound by far more than the rounding of
// the solver's sums, so the bound stays above the speedup it dominates. It
// is needed even for Amdahl's term: an uncontended solve computes
// amdahl·n/n, which rounds one ulp above amdahl for some n.
const boundSlack = 1e-12

// speedupBound returns the lockstep dominance bound on the speedup
// PredictTime reports for place (DESIGN.md §12): the lower of Amdahl's
// speedup and fInit·Σ_s n_s/L_s, where n_s threads sit on socket s, widened
// by boundSlack.
//
// It holds on every iteration's values, converged or not. Resource
// slowdowns are at least 1 and a socket's communication cost is at least
// its lockstep share c_s = (1−l)·os·(n−n_s)·fInit over the resource
// slowdown (§5.2), so a thread's pre-balance slowdown is at least
// min over x ≥ 1 of x + c_s/x, which is h_s. The cap sCap is the first
// iteration's largest slowdown, at least max h, so it cuts nothing below
// h_s, and load balancing (§5.3) lifts each slowdown to at least
// L_s = (1−l)·max h + l·h_s. Speedup is fInit·Σ 1/slowdown.
//
// Without the lockstep term (communication disabled, no inter-socket
// overhead, one thread) the bound is Amdahl's. Under AllowDegraded it is
// Amdahl's too: a non-converged solve then reports the Amdahl speedup.
//
//pandia:noalloc
func (p *Predictor) speedupBound(place placement.Placement) float64 {
	n := len(place)
	amdahl := p.w.AmdahlSpeedup(n) * (1 + boundSlack)
	os, l := p.w.InterSocketOverhead, p.w.LoadBalance
	if p.opt.AllowDegraded || p.opt.DisableComm || os <= 0 || n <= 1 {
		return amdahl
	}
	nSock := p.e.nSock
	if p.boundScratch == nil {
		p.boundScratch = make([]float64, 2*nSock) //alloccheck:ok once per predictor; only pruned sweeps pay for it
	}
	counts, hs := p.boundScratch[:nSock], p.boundScratch[nSock:]
	for _, c := range place {
		if c.Socket < 0 || c.Socket >= len(counts) {
			// Not on the machine: PredictTime reports the error.
			clear(counts)
			return amdahl
		}
		counts[c.Socket]++
	}
	fn := float64(n)
	fInit := p.w.AmdahlSpeedup(n) / fn //nanguard:ok n > 1 past the early return
	hMax := 0.0
	for s, ns := range counts {
		if ns == 0 {
			continue
		}
		c := (1 - l) * os * (fn - ns) * fInit
		h := 1 + c
		if c > 1 {
			h = 2 * math.Sqrt(c)
		}
		h *= 1 - boundSlack
		hs[s] = h
		hMax = math.Max(hMax, h)
	}
	var sum float64
	for s, ns := range counts {
		if ns == 0 {
			continue
		}
		ls := (1-l)*hMax + l*hs[s]
		if p.opt.DisableLoadBalance {
			ls = hs[s]
		}
		sum += ns / ls //nanguard:ok every h is at least 1−boundSlack, so ls > 0
		counts[s] = 0
	}
	return math.Min(amdahl, fInit*sum*(1+boundSlack))
}

// sweepChunk is the number of consecutive placements a sweep worker claims
// per counter increment. Chunking amortises the atomic traffic while staying
// fine-grained enough to balance uneven placement sizes.
const sweepChunk = 16

// sweepRound is the number of placements a pruned sweep tests against one
// incumbent (DESIGN.md §12). It does not depend on the worker count, so
// neither does the pruned set.
const sweepRound = 256

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
// It runs the pruned sweep's loop with frac 0: one round in index order, in
// which no placement is pruned.
func PredictSweep(md *machine.Description, w *Workload, places []placement.Placement, opt Options) ([]TimePrediction, error) {
	out, _, err := predictSweepN(md, w, places, opt, 0, SweepWorkers(len(places)))
	return out, err
}

// SweepStats reports a pruned sweep's work split: Evaluated placements were
// solved, Pruned placements were skipped because their lockstep dominance
// bound could not reach the incumbent (DESIGN.md §12). The incumbent moves
// only between rounds of a fixed size, so the split, like every result, is
// a function of the machine, workload, placements and fraction alone: the
// worker count and scheduling do not move it.
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
// a placement whose speedup bound is strictly below frac times the
// incumbent best speedup is skipped without solving, because it can neither
// become the best placement nor reach a frac-of-best target. The bound is
// Amdahl's speedup tightened by the lockstep communication cost and the
// load-balancing spread (speedupBound); it dominates the speedup of every
// solve, converged or not. Skipped slots are returned as zero
// TimePredictions with Pruned set; every evaluated slot is bit-identical to
// the full sweep's.
//
// The sweep first solves the placement with the highest bound (the lowest
// index on ties) to seed the incumbent. It takes the others by bound,
// descending, ties in index order, in rounds of sweepRound: a placement is
// pruned when its bound is below frac times the incumbent as it stood at
// the start of its round. Workers split a round, and the incumbent is
// published at the round's end, so the pruned set, every slot and the
// stats are the same at any worker count. frac outside (0, 1], NaN
// included, is clamped to 1 — prune only what cannot beat the incumbent at
// all.
func PredictSweepPruned(md *machine.Description, w *Workload, places []placement.Placement, opt Options, frac float64) ([]TimePrediction, SweepStats, error) {
	if !(frac > 0 && frac <= 1) {
		frac = 1
	}
	return predictSweepN(md, w, places, opt, frac, SweepWorkers(len(places)))
}

// sweep is the state one sweep's workers share while they solve a round.
type sweep struct {
	places []placement.Placement
	out    []TimePrediction
	// order lists the placements to solve, by position; nil is index
	// order, in which the seed is skipped.
	order []int32
	seed  int
	// hi ends the round's positions, and next is the first one unclaimed.
	// Only the coordinator writes hi, between rounds.
	hi   int
	next atomic.Int64
	// best is the largest speedup solved so far, as float bits (IEEE
	// ordering matches unsigned ordering for non-negative values).
	best     atomic.Uint64
	stop     atomic.Bool
	mu       sync.Mutex
	firstErr error
}

// fail records the sweep's first error and stops every worker's claims.
func (s *sweep) fail(err error) {
	s.stop.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// predictSweepN is the sweep behind PredictSweep (frac 0) and
// PredictSweepPruned, with an explicit worker count (at least 1) so tests
// can force parallel execution on single-CPU machines. The inputs are
// validated, and under AllowDegraded repaired, by NewPredictor alone, even
// for an empty placement list. The calling goroutine solves the seed, then
// coordinates the rounds and solves its share of each on the seed's
// Predictor; up to workers−1 helpers, each with a Predictor of its own,
// persist across the rounds.
func predictSweepN(md *machine.Description, w *Workload, places []placement.Placement, opt Options, frac float64, workers int) ([]TimePrediction, SweepStats, error) {
	p, err := NewPredictor(md, w, opt)
	if err != nil {
		return nil, SweepStats{}, err
	}
	out := make([]TimePrediction, len(places))
	if len(places) == 0 {
		return out, SweepStats{}, nil
	}

	// Seed: the highest-bound placement is never prunable, so solving it
	// first gives every other placement a strong incumbent to beat. Bounds
	// come from the predictor's workload, which is the repaired copy under
	// AllowDegraded. Each bound is computed once, here, and waits in its
	// placement's out slot, as the Speedup of an otherwise zero value,
	// until the sweep prunes the slot or solves it. A sweep that never
	// prunes (frac 0) computes no bound and seeds with the largest
	// placement, which grows the predictor's scratch once instead of step
	// by step.
	seed, seedKey := 0, math.Inf(-1)
	for i, place := range places {
		k := float64(len(place))
		if frac > 0 {
			k = p.speedupBound(place)
			out[i].Speedup = k
		}
		if k > seedKey {
			seed, seedKey = i, k
		}
	}
	tp, err := p.PredictTime(places[seed])
	if err != nil {
		return nil, SweepStats{}, err
	}
	out[seed] = tp
	s := &sweep{places: places, out: out, seed: seed}
	s.best.Store(math.Float64bits(tp.Speedup))

	// Frac 0 sweeps every position of the index order in one round. A
	// pruned sweep orders what the seed's speedup cannot already prune.
	n, size, pruned := len(places), len(places), 0
	if frac > 0 {
		s.order, pruned = boundOrder(out, seed, frac*tp.Speedup)
		n, size = len(s.order), sweepRound
	}

	var (
		start       chan struct{}
		round, exit sync.WaitGroup
	)
	helper := func() {
		defer exit.Done()
		var (
			wp   *Predictor
			done int64
			err  error
		)
		for range start {
			if wp == nil {
				wp, err = NewPredictor(md, w, opt)
			}
			if err == nil {
				var d int64
				d, err = sweepChunks(wp, s)
				done += d
			}
			if err != nil {
				s.fail(err)
			}
			round.Done()
		}
		metSweepPreds.Add(done)
		metSweepPerWkr.Observe(float64(done))
	}
	defer func() {
		if start != nil {
			close(start)
			exit.Wait()
		}
	}()

	done := int64(1) // the seed
	for lo := 0; lo < n && !s.stop.Load(); lo += size {
		hi := min(lo+size, n)
		if frac > 0 {
			// Bounds fall along the order, so the round's pruned
			// placements are a suffix, and every later round is pruned
			// whole.
			thr := frac * math.Float64frombits(s.best.Load())
			cut := lo
			for cut < hi && !(out[s.order[cut]].Speedup < thr) {
				cut++
			}
			if cut < hi {
				for _, i := range s.order[cut:] {
					out[i] = TimePrediction{Pruned: true}
				}
				pruned += n - cut
				n = cut // ends the loop after this round
			}
			hi = cut
		}
		s.hi = hi
		s.next.Store(int64(lo))
		// One helper per chunk beyond the one the coordinator takes.
		helpers := max(0, min(workers, (hi-lo+sweepChunk-1)/sweepChunk)-1)
		if helpers > 0 && start == nil {
			start = make(chan struct{}, workers-1)
			for wk := 1; wk < workers; wk++ {
				exit.Add(1)
				go helper()
			}
		}
		round.Add(helpers)
		for wk := 0; wk < helpers; wk++ {
			start <- struct{}{}
		}
		d, err := sweepChunks(p, s)
		done += d
		if err != nil {
			s.fail(err)
		}
		round.Wait()
	}
	metSweepPreds.Add(done)
	metSweepPruned.Add(int64(pruned))
	metSweepPerWkr.Observe(float64(done))
	if s.firstErr != nil {
		return nil, SweepStats{}, s.firstErr
	}
	return out, SweepStats{Evaluated: int64(len(places) - pruned), Pruned: int64(pruned)}, nil
}

// boundOrder returns the placements a sweep seeded at seed may still have
// to solve, every other one whose bound, parked in its out slot, is not
// below thr, sorted by bound, descending, ties in index order. It marks the
// rest pruned and returns their count: the incumbent only rises, so they
// are pruned in any order, and only the rest pay for the sort.
func boundOrder(out []TimePrediction, seed int, thr float64) ([]int32, int) {
	n := 0
	for i := range out {
		if i != seed && !(out[i].Speedup < thr) {
			n++
		}
	}
	buf := make([]int32, 2*n)
	order := buf[:0:n]
	for i := range out {
		switch {
		case i == seed:
		case out[i].Speedup < thr:
			out[i] = TimePrediction{Pruned: true}
		default:
			order = append(order, int32(i))
		}
	}
	return sortByBound(order, buf[n:], out), len(out) - 1 - n
}

// radixBits is the width of one digit of sortByBound.
const radixBits = 8

// sortByBound sorts order, a list of out's indices, by the bounds parked in
// their slots, descending, keeping equal bounds in their order: a
// least-significant-digit radix sort over the complemented bits of each
// bound, which order like the bounds, reversed, for positive bounds. A
// digit every key shares is skipped. tmp is scratch of order's length, and
// the result is one of the two.
//
//pandia:noalloc
func sortByBound(order, tmp []int32, out []TimePrediction) []int32 {
	const mask = 1<<radixBits - 1
	var varying uint64
	if len(order) > 0 {
		first := math.Float64bits(out[order[0]].Speedup)
		for _, i := range order {
			varying |= math.Float64bits(out[i].Speedup) ^ first
		}
	}
	for shift := 0; shift < 64; shift += radixBits {
		if varying>>shift&mask == 0 {
			continue
		}
		var pos [1 << radixBits]int
		for _, i := range order {
			pos[^math.Float64bits(out[i].Speedup)>>shift&mask]++
		}
		sum := 0
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		for _, i := range order {
			d := ^math.Float64bits(out[i].Speedup) >> shift & mask
			tmp[pos[d]] = i
			pos[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// sweepChunks is one sweep worker's claim loop over the round: it claims
// chunks of the round's positions from the shared counter and predicts
// each placement on the fast path into its out slot, raising the
// incumbent. Only the claiming worker touches a slot. Which placements the
// round solves the coordinator settled before it began, so no bound is
// read here.
//
//pandia:noalloc
func sweepChunks(p *Predictor, s *sweep) (done int64, err error) {
	for !s.stop.Load() {
		lo := int(s.next.Add(sweepChunk)) - sweepChunk
		if lo >= s.hi {
			break
		}
		metSweepChunks.Inc()
		for pos := lo; pos < min(lo+sweepChunk, s.hi); pos++ {
			i := pos
			if s.order != nil {
				i = int(s.order[pos])
			} else if i == s.seed {
				continue
			}
			tp, err := p.PredictTime(s.places[i])
			if err != nil {
				return done, err
			}
			s.out[i] = tp
			done++
			// Monotone max over positive float bits.
			bits := math.Float64bits(tp.Speedup)
			for {
				cur := s.best.Load()
				if bits <= cur || s.best.CompareAndSwap(cur, bits) {
					break
				}
			}
		}
	}
	return done, nil
}

// CoPredictor is the reusable joint-prediction pipeline: one engine's
// scratch re-bound to successive co-schedules of the same machine. The
// scheduler uses one per Scheduler instance, under its lock, to evaluate
// candidate placements without rebuilding the engine each time; repeated
// mixes are memoized one layer up, in the scheduler's CoCache.
//
// A CoPredictor is not safe for concurrent use.
type CoPredictor struct {
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
	return &CoPredictor{e: e, opt: opt}, nil
}

// Options returns the options every Predict call of this CoPredictor uses.
func (cp *CoPredictor) Options() Options { return cp.opt }

// SetSpan stamps subsequent Predict calls' trace events with the given
// decision id (Options.SpanID): the scheduler sets it before each joint
// solve so solver iterations join the operation's span in the trace
// stream. It changes no prediction and no cache key (SpanID is excluded
// from the canonical hash).
func (cp *CoPredictor) SetSpan(id int64) { cp.opt.SpanID = id }

// Predict jointly predicts the placed workloads, reusing the engine's
// scratch; core.PredictCoSchedule(md, placed, opt) is a fresh CoPredictor's
// Predict.
func (cp *CoPredictor) Predict(placed []PlacedWorkload) (*CoPrediction, error) {
	e := cp.e
	if err := e.bind(placed, true); err != nil {
		return nil, err
	}
	iters, converged := e.iterate(cp.opt)
	preds := make([]*Prediction, len(e.jobs))
	if err := e.assemble(preds, iters, converged, true); err != nil {
		return nil, err
	}
	// Every prediction carries the joint loads and worst resource; bind
	// rejects an empty mix, so preds[0] exists.
	p := preds[0]
	return &CoPrediction{
		Predictions:           preds,
		Loads:                 p.Loads,
		WorstOversubscription: p.WorstOversubscription,
		WorstResource:         p.WorstResource,
		Iterations:            iters,
		Converged:             converged,
	}, nil
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
	return cp.score(placed, dst, true)
}

// ScoreValidated is Score for workloads that the caller has validated
// (Workload.Validate) and not changed since: it skips their validation and
// is otherwise the same solve, bit for bit. Placements are still checked.
// The scheduler scores through it, as Submit validates each job's
// workload snapshot once.
//
//pandia:noalloc
func (cp *CoPredictor) ScoreValidated(placed []PlacedWorkload, dst []float64) (CoScore, error) {
	return cp.score(placed, dst, false)
}

// score is Score, validating each workload when validate is set.
//
//pandia:noalloc
func (cp *CoPredictor) score(placed []PlacedWorkload, dst []float64, validate bool) (CoScore, error) {
	if invariantChecks.Load() {
		co, err := cp.Predict(placed) //alloccheck:ok invariant-check mode deliberately routes through the allocating full path
		if err != nil {
			return CoScore{}, err
		}
		return co.Score(dst), nil //alloccheck:ok invariant-check mode only; dst may grow like the full path's result
	}
	e := cp.e
	if err := e.bind(placed, validate); err != nil {
		return CoScore{}, err
	}
	e.iterate(cp.opt)
	e.accumulate(true) // refresh every load at the converged utilisations
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
