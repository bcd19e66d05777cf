// Package scheduler is an online thread-placement controller built on
// Pandia's predictions — the paper's motivating deployment (§1: "our
// ultimate aim is to support parallel workloads within a server
// application", §8: handling multiple workloads via predicted resource
// consumption).
//
// Jobs arrive with workload descriptions (produced offline by the six-run
// profiler). For each arrival the scheduler generates candidate placements
// over the machine's free hardware contexts, jointly predicts each
// candidate against everything already running with the co-scheduling
// predictor, and picks the candidate that maximises aggregate predicted
// throughput. An optional admission threshold rejects placements that
// would over-subscribe a resource beyond a configured factor.
package scheduler

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"pandia/internal/core"
	"pandia/internal/counters"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// Metric handles for the scheduler (catalogued in DESIGN.md §9).
var (
	metSubmissions      = obs.Default().Counter("scheduler.submissions")
	metRejections       = obs.Default().Counter("scheduler.rejections")
	metRejectRate       = obs.Default().Counter("scheduler.rejections.rate_limited")
	metRejectSLO        = obs.Default().Counter("scheduler.rejections.slo")
	metRejectCheck      = obs.Default().Counter("scheduler.rejections.placement_check")
	metDegradedAdmits   = obs.Default().Counter("scheduler.admissions.degraded")
	metRunningJobs      = obs.Default().Gauge("scheduler.running_jobs")
	metRebalanceRuns    = obs.Default().Counter("scheduler.rebalance.runs")
	metRebalanceMoves   = obs.Default().Counter("scheduler.rebalance.moves_advised")
	metRebalanceApplied = obs.Default().Counter("scheduler.rebalance.moves_applied")
	// metCandidatesPruned counts candidate placements skipped under the
	// Amdahl dominance bound (DESIGN.md §12) instead of jointly predicted.
	metCandidatesPruned = obs.Default().Counter("scheduler.candidates.pruned")
)

// Job is a unit of admission: a profiled workload wanting threads.
type Job struct {
	// ID must be unique among running jobs.
	ID string
	// Workload is the job's Pandia description.
	Workload *core.Workload
	// Threads requests a specific thread count; 0 lets the scheduler pick
	// the count with the best predicted completion time.
	Threads int
}

// Assignment records a running job's placement and the joint prediction at
// admission time.
type Assignment struct {
	Job       Job
	Placement placement.Placement
	// Prediction is the job's own prediction under the joint model at the
	// moment of admission (later arrivals can change actual behaviour).
	Prediction *core.Prediction
	// Strategy names the candidate generator that produced the placement.
	Strategy string
	// Degraded marks an admission that violated an admission policy but
	// was accepted anyway under Config.AdmitDegraded (mirroring
	// core.Options.AllowDegraded); DegradedReasons names the violated
	// policies.
	Degraded        bool
	DegradedReasons []string
}

// Config tunes the scheduler.
type Config struct {
	// AdmissionThreshold rejects candidates whose combined predicted
	// over-subscription exceeds this factor on any resource; 0 disables
	// admission control.
	AdmissionThreshold float64
	// CandidateThreadCounts lists the thread counts tried when a job does
	// not request one; nil uses a built-in ladder (1, 2, 4, ... machine).
	CandidateThreadCounts []int
	// SlowdownSLO rejects candidates under which any job's predicted
	// contention slowdown — its ideal Amdahl speedup over its predicted
	// joint speedup — would exceed this bound; 0 disables the SLO.
	SlowdownSLO float64
	// AdmissionRate and AdmissionBurst configure a token bucket over
	// arrivals: AdmissionBurst tokens capacity, refilled at AdmissionRate
	// tokens per second on Clock, one token consumed per admission.
	// AdmissionRate 0 disables rate limiting.
	AdmissionRate  float64
	AdmissionBurst float64
	// AdmitDegraded admits the best available candidate even when the
	// token bucket is empty or every candidate violates SlowdownSLO /
	// AdmissionThreshold, marking the Assignment Degraded with the
	// violated policies as reasons — the overload posture mirroring
	// core.Options.AllowDegraded.
	AdmitDegraded bool
	// Clock times the token bucket. nil means wall time; scenario replays
	// inject an obs.ManualClock so admission decisions are deterministic.
	Clock obs.Clock
	// PlacementCheck, when non-nil, is consulted immediately before any
	// placement commits (admission, applied moves, drain migrations); an
	// error vetoes that commit. Fault injection hooks in here
	// (faults.MachineInjector.PlacementCheck), as would an OS-level
	// pinning dry-run.
	PlacementCheck func(placement.Placement) error
	// DisablePredictionCache turns off the shared joint-prediction cache
	// that Submit, Predict, Rebalance, and the drain migration search route
	// through. Cache hits return the exact previously computed prediction
	// (the key is a canonical content hash — DESIGN.md §12), so disabling
	// the cache changes no decision; the flag exists for differential tests
	// and measurement.
	DisablePredictionCache bool
	// Journal, when non-nil and enabled, receives one typed DecisionRecord
	// per scheduler operation — decision id, cause chain, candidate-set
	// size, top-k alternative placements, prune/cache statistics, typed
	// rejection reason — and auto-snapshots its window on incidents (SLO
	// rejection, eviction, degraded admission). A nil or disabled journal
	// costs one branch per operation.
	Journal *obs.Journal
	// Tracer, when non-nil and enabled, receives hierarchical operation
	// spans (Submit → candidate sweep → cache lookup) and is threaded into
	// the joint solver, whose iteration events then carry the operation's
	// decision id — one Perfetto timeline links scheduler decisions to the
	// solver work they caused. Same cost contract as core.Options.Tracer.
	Tracer obs.Tracer
}

// Scheduler places jobs on one machine. It is safe for concurrent use.
type Scheduler struct {
	md    *machine.Description
	cfg   Config
	clock obs.Clock

	mu sync.Mutex
	//pandia:guardedby(mu)
	running map[string]*Assignment
	//pandia:guardedby(mu)
	occupied map[topology.Context]string
	// health records non-healthy contexts; absence means Healthy.
	//pandia:guardedby(mu)
	health map[topology.Context]Health
	// tokens / lastRefill implement the admission token bucket.
	//pandia:guardedby(mu)
	tokens float64
	//pandia:unit seconds
	//pandia:guardedby(mu)
	lastRefill float64
	// co is the reusable joint-prediction pipeline. A CoPredictor owns
	// mutable engine scratch, so it is only used while mu is held.
	//pandia:guardedby(mu)
	co *core.CoPredictor
	// coCache memoizes joint predictions across Submit, Predict, Rebalance,
	// and drain candidate scoring; nil when Config.DisablePredictionCache.
	// The cache itself is concurrency-safe, but it is only touched under mu
	// alongside co.
	//pandia:guardedby(mu)
	coCache *core.CoCache
}

// New builds a scheduler for the described machine.
func New(md *machine.Description, cfg Config) (*Scheduler, error) {
	co, err := core.NewCoPredictor(md, core.Options{Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.WallClock()
	}
	s := &Scheduler{
		md:       md,
		cfg:      cfg,
		clock:    clock,
		running:  make(map[string]*Assignment),
		occupied: make(map[topology.Context]string),
		health:   make(map[topology.Context]Health),
		co:       co,
	}
	if !cfg.DisablePredictionCache {
		s.coCache = core.NewCoCache(0)
	}
	if cfg.AdmissionRate > 0 {
		// The bucket starts full so a fresh scheduler accepts a burst.
		s.tokens = s.burst()
		s.lastRefill = clock.Now()
	}
	return s, nil
}

// Machine returns the scheduler's machine shape.
func (s *Scheduler) Machine() topology.Machine { return s.md.Topo }

// FreeContexts returns the unoccupied hardware contexts in dense order.
func (s *Scheduler) FreeContexts() []topology.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freeLocked()
}

func (s *Scheduler) freeLocked() []topology.Context {
	var out []topology.Context
	for _, c := range s.md.Topo.Contexts() {
		if _, used := s.occupied[c]; used {
			continue
		}
		if s.healthLocked(c) != Healthy {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Assignments returns the running assignments sorted by job ID.
func (s *Scheduler) Assignments() []*Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Assignment, 0, len(s.running))
	for _, a := range s.running {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.ID < out[j].Job.ID })
	return out
}

// Submit admits a job: it evaluates candidate placements over the free
// contexts jointly with everything running and commits the best one.
// Every admission bumps scheduler.submissions, every failure (validation,
// no feasible placement, admission threshold) scheduler.rejections.
func (s *Scheduler) Submit(job Job) (asgn *Assignment, err error) {
	defer func() {
		if err != nil {
			metRejections.Inc()
		} else {
			metSubmissions.Inc()
		}
	}()
	if job.ID == "" {
		return nil, fmt.Errorf("scheduler: job needs an ID")
	}
	if job.Workload == nil {
		return nil, fmt.Errorf("scheduler: job %q has no workload description", job.ID)
	}
	if err := job.Workload.Validate(); err != nil {
		return nil, err
	}
	if job.Workload.Demand == (counters.Rates{}) {
		return nil, fmt.Errorf("scheduler: job %q has an empty demand vector; profile the workload before submission", job.ID)
	}
	if job.Threads < 0 {
		return nil, fmt.Errorf("scheduler: job %q requests %d threads", job.ID, job.Threads)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.running[job.ID]; dup {
		return nil, fmt.Errorf("scheduler: job %q already running", job.ID)
	}

	sc := s.beginOpLocked("submit", job.ID)
	defer sc.end()

	var degradedReasons []string
	if s.cfg.AdmissionRate > 0 {
		if !s.takeTokenLocked() {
			if !s.cfg.AdmitDegraded {
				metRejectRate.Inc()
				aerr := &AdmissionError{JobID: job.ID, Kind: AdmitRateLimited,
					Reason: fmt.Sprintf("token bucket empty (rate %g/s, burst %g)",
						s.cfg.AdmissionRate, s.burst())}
				sc.rejected(aerr.Kind.String(), aerr.Reason)
				return nil, aerr
			}
			degradedReasons = append(degradedReasons, "admission: rate limit exceeded, admitted degraded")
		}
	}

	free := s.freeLocked()
	if len(free) == 0 {
		aerr := &AdmissionError{JobID: job.ID, Kind: AdmitNoCapacity,
			Reason: "no free healthy hardware contexts"}
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		return nil, aerr
	}
	sc.phase(SpanPhaseSweep, true)
	candidates := s.candidatesLocked(free, s.candidateCounts(job, len(free))...)
	if len(candidates) == 0 {
		sc.phase(SpanPhaseSweep, false)
		aerr := &AdmissionError{JobID: job.ID, Kind: AdmitNoCapacity,
			Reason: fmt.Sprintf("no feasible placement (%d free contexts)", len(free))}
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		return nil, aerr
	}
	if sc.journaling {
		sc.rec.Candidates = len(candidates)
	}

	// Joint prediction of each candidate with the running mix; the new job
	// rides in the mix's last slot.
	_, base := s.mixLocked()
	// baseBound is the running mix's summed Amdahl speedups: with the new
	// job's own Amdahl bound added it upper-bounds any candidate's aggregate
	// throughput (Speedup <= AmdahlSpeedup per job, pinned by the model
	// invariants), which lets clearly dominated candidates skip the joint
	// solve below.
	baseBound := 0.0
	for _, pw := range base {
		baseBound += pw.Workload.AmdahlSpeedup(len(pw.Placement))
	}
	jobs := append(base, core.PlacedWorkload{Workload: job.Workload})
	last := len(jobs) - 1

	bestScore := -1.0
	var best *Assignment
	// bestAny is the best candidate ignoring the threshold/SLO policies —
	// what AdmitDegraded falls back to when nothing passes.
	bestAnyScore := -1.0
	var bestAny *Assignment
	var policyViolations []string
	sawSLO := false
	// evals mirrors every solved candidate for the journal's top-k
	// alternatives; nil (nothing collected) unless journaling.
	type candEval struct {
		placement, strategy string
		score, slowdown     float64
		reject              string
	}
	var evals []candEval
	var prunedHere int64
	seen := make(map[string]bool)
	for _, cand := range candidates {
		key := cand.place.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		// Dominance pruning: a candidate whose Amdahl upper bound cannot
		// strictly beat both incumbents can change neither best nor bestAny
		// (both require score > incumbent), so the solve is skipped. Both
		// incumbents start at -1, so nothing prunes before one candidate has
		// been scored — rejection reasons are unaffected.
		if bound := baseBound + job.Workload.AmdahlSpeedup(len(cand.place)); bound <= bestScore && bound <= bestAnyScore {
			metCandidatesPruned.Inc()
			prunedHere++
			continue
		}
		jobs[last].Placement = cand.place
		co, err := s.predictMixLocked(jobs, sc.id)
		if err != nil {
			sc.phase(SpanPhaseSweep, false)
			sc.errored(err)
			return nil, err
		}
		score := aggregateThroughput(co)
		// The SLO metric doubles as the journal's per-candidate slowdown, so
		// compute it whenever either consumer wants it.
		slow := 0.0
		if s.cfg.SlowdownSLO > 0 || sc.journaling {
			slow = worstSlowdown(co)
		}
		asgn := &Assignment{
			Job:        job,
			Placement:  cand.place,
			Prediction: co.Predictions[last],
			Strategy:   cand.strategy,
		}
		if score > bestAnyScore {
			bestAnyScore = score
			bestAny = asgn
		}
		var reject string
		if s.cfg.AdmissionThreshold > 0 && co.WorstOversubscription > s.cfg.AdmissionThreshold {
			reject = fmt.Sprintf(
				"%s: oversubscription %.2f > threshold %.2f", cand.strategy,
				co.WorstOversubscription, s.cfg.AdmissionThreshold)
		} else if s.cfg.SlowdownSLO > 0 && slow > s.cfg.SlowdownSLO {
			reject = fmt.Sprintf(
				"%s: worst slowdown %.2f > SLO %.2f", cand.strategy, slow, s.cfg.SlowdownSLO)
			sawSLO = true
		}
		if sc.journaling {
			evals = append(evals, candEval{
				placement: key, strategy: cand.strategy,
				score: score, slowdown: slow, reject: reject,
			})
		}
		if reject != "" {
			policyViolations = append(policyViolations, reject)
			continue
		}
		if score > bestScore {
			bestScore = score
			best = asgn
		}
	}
	sc.phase(SpanPhaseSweep, false)
	if sc.journaling {
		sc.rec.Pruned = prunedHere
	}
	if best == nil {
		if !s.cfg.AdmitDegraded || bestAny == nil {
			kind := AdmitOversubscribed
			if sawSLO {
				kind = AdmitSLOExceeded
				metRejectSLO.Inc()
			}
			aerr := &AdmissionError{JobID: job.ID, Kind: kind,
				Reason: "every candidate violates admission policy: " + strings.Join(policyViolations, "; ")}
			if sc.journaling {
				for _, ev := range evals {
					sc.rec.AddAlternative(obs.Alternative{
						Placement: ev.placement, Strategy: ev.strategy,
						Score: ev.score, Slowdown: ev.slowdown, Reject: ev.reject,
					})
				}
				sc.rejected(aerr.Kind.String(), aerr.Reason)
				if kind == AdmitSLOExceeded {
					sc.incident("slo-rejection", job.ID, aerr.Reason)
				}
			}
			return nil, aerr
		}
		best = bestAny
		degradedReasons = append(degradedReasons,
			"admission: every candidate violates admission policy, admitted degraded")
	}

	if s.cfg.PlacementCheck != nil {
		if cerr := s.cfg.PlacementCheck(best.Placement); cerr != nil {
			metRejectCheck.Inc()
			perr := &PlacementCheckError{JobID: job.ID, Err: cerr}
			sc.rejected("placement-check", perr.Error())
			return nil, perr
		}
	}

	if len(degradedReasons) > 0 {
		best.Degraded = true
		best.DegradedReasons = degradedReasons
		metDegradedAdmits.Inc()
	}
	s.running[job.ID] = best
	for _, c := range best.Placement {
		s.occupied[c] = job.ID
	}
	metRunningJobs.Set(float64(len(s.running)))
	if sc.journaling {
		chosen := best.Placement.String()
		matched := false
		for _, ev := range evals {
			if !matched && ev.placement == chosen && ev.strategy == best.Strategy {
				matched = true
				sc.rec.Score = ev.score
				continue
			}
			sc.rec.AddAlternative(obs.Alternative{
				Placement: ev.placement, Strategy: ev.strategy,
				Score: ev.score, Slowdown: ev.slowdown, Reject: ev.reject,
			})
		}
		sc.rec.Placement = chosen
		sc.rec.Strategy = best.Strategy
		sc.rec.Outcome = "admitted"
		if best.Degraded {
			sc.rec.Outcome = "admitted-degraded"
			sc.rec.Reason = strings.Join(best.DegradedReasons, "; ")
		}
		sc.record()
		if best.Degraded {
			sc.incident("degraded-admission", job.ID, strings.Join(best.DegradedReasons, "; "))
		}
	}
	return best, nil
}

// burst returns the token bucket capacity (at least one token).
func (s *Scheduler) burst() float64 {
	if s.cfg.AdmissionBurst > 1 {
		return s.cfg.AdmissionBurst
	}
	return 1
}

// takeTokenLocked refills the admission token bucket from the clock and
// consumes one token, reporting whether one was available. The caller must
// hold mu.
func (s *Scheduler) takeTokenLocked() bool {
	now := s.clock.Now()
	if elapsed := now - s.lastRefill; elapsed > 0 {
		s.tokens += elapsed * s.cfg.AdmissionRate
		if max := s.burst(); s.tokens > max {
			s.tokens = max
		}
	}
	s.lastRefill = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// worstSlowdown is the SLO metric: the largest ratio of ideal Amdahl
// speedup to predicted joint speedup across the co-schedule — how far the
// worst-affected job is pushed from its contention-free scaling.
func worstSlowdown(co *core.CoPrediction) float64 {
	worst := 0.0
	for _, p := range co.Predictions {
		if p.Speedup <= 0 {
			return math.Inf(1)
		}
		if sl := p.AmdahlSpeedup / p.Speedup; sl > worst {
			worst = sl
		}
	}
	return worst
}

// Remove releases a finished job's contexts.
func (s *Scheduler) Remove(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.running[jobID]
	if !ok {
		return fmt.Errorf("scheduler: job %q not running", jobID)
	}
	for _, c := range a.Placement {
		delete(s.occupied, c)
	}
	delete(s.running, jobID)
	metRunningJobs.Set(float64(len(s.running)))
	return nil
}

// Predict re-predicts the whole running mix jointly (for monitoring). The
// prediction runs under the lock so it can reuse the scheduler's pooled
// CoPredictor.
func (s *Scheduler) Predict() (*core.CoPrediction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, jobs := s.mixLocked()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("scheduler: nothing running")
	}
	sc := s.beginOpLocked("predict", "")
	defer sc.end()
	co, err := s.predictMixLocked(jobs, sc.id)
	if err != nil {
		sc.errored(err)
		return nil, err
	}
	if sc.journaling {
		sc.rec.Outcome = "predicted"
		sc.rec.Candidates = len(jobs)
		sc.rec.Score = aggregateThroughput(co)
		sc.record()
	}
	return co, nil
}

// predictMixLocked jointly predicts one mix through the shared prediction
// cache: a canonical-hash hit returns the exact CoPrediction an earlier
// solve produced (callers treat it as read-only), a miss solves on the
// pooled CoPredictor and stores the result. span is the requesting
// operation's decision id (0 outside one): it brackets the cache lookup in
// a span and rides into the solver's trace events, but is excluded from the
// cache key (DESIGN.md §12). The caller must hold mu.
func (s *Scheduler) predictMixLocked(jobs []core.PlacedWorkload, span int64) (*core.CoPrediction, error) {
	s.co.SetSpan(span)
	if s.coCache == nil {
		return s.co.Predict(jobs)
	}
	tr := s.cfg.Tracer
	tracing := span != 0 && tr != nil && tr.Enabled()
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanBegin, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	key, verify := s.coCache.Key(s.md, jobs, s.co.Options())
	cached, ok := s.coCache.Lookup(key, verify)
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanEnd, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	if ok {
		return cached, nil
	}
	co, err := s.co.Predict(jobs)
	if err != nil {
		return nil, err
	}
	s.coCache.Store(key, verify, co)
	return co, nil
}

// InvalidatePredictions drops every cached joint prediction (the canonical
// keys already stop matching when the machine description or a workload is
// mutated in place; this is the O(1) bulk epoch bump for callers that want
// the memory back too).
func (s *Scheduler) InvalidatePredictions() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coCache != nil {
		s.coCache.Invalidate()
	}
}

// PredictionCacheStats reports the shared joint-prediction cache's lifetime
// traffic (zero when the cache is disabled).
func (s *Scheduler) PredictionCacheStats() core.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coCache == nil {
		return core.CacheStats{}
	}
	return s.coCache.Stats()
}

// mixLocked returns the running jobs' IDs and placed workloads, both in
// sorted job-ID order. Floating-point accumulation in the joint solver is
// order-sensitive and scenario replays diff outcomes byte-for-byte, so
// iterating the running map directly would leak map order into the
// predictions. The caller must hold mu.
func (s *Scheduler) mixLocked() ([]string, []core.PlacedWorkload) {
	ids := make([]string, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	jobs := make([]core.PlacedWorkload, len(ids))
	for i, id := range ids {
		a := s.running[id]
		jobs[i] = core.PlacedWorkload{Workload: a.Job.Workload, Placement: a.Placement}
	}
	return ids, jobs
}

// availLocked lists the contexts a running job may be re-placed onto: the
// free healthy contexts plus the job's own healthy ones, in dense order.
// Cordoned contexts the job occupies are excluded, so re-placement
// naturally migrates it off a cordon. The caller must hold mu.
func (s *Scheduler) availLocked(a *Assignment) []topology.Context {
	avail := s.freeLocked()
	for _, c := range a.Placement {
		if s.healthLocked(c) == Healthy {
			avail = append(avail, c)
		}
	}
	sortContexts(avail)
	return avail
}

// candidateCounts resolves the thread-count ladder for a job.
func (s *Scheduler) candidateCounts(job Job, free int) []int {
	if job.Threads > 0 {
		if job.Threads > free {
			return nil
		}
		return []int{job.Threads}
	}
	if len(s.cfg.CandidateThreadCounts) > 0 {
		var out []int
		for _, n := range s.cfg.CandidateThreadCounts {
			if n >= 1 && n <= free {
				out = append(out, n)
			}
		}
		return out
	}
	var out []int
	for n := 1; n <= free; n *= 2 {
		out = append(out, n)
	}
	if out[len(out)-1] != free {
		out = append(out, free)
	}
	return out
}

// aggregateThroughput scores a joint prediction: the sum of every job's
// predicted speedup. Growing the new job raises its own term until its
// bottleneck saturates, and any interference it inflicts lowers the others'
// terms, so the maximum balances the new job's progress against the damage
// it does.
func aggregateThroughput(co *core.CoPrediction) float64 {
	var sum float64
	for _, p := range co.Predictions {
		sum += p.Speedup
	}
	return sum
}

// candidate is one generated placement and the strategy that produced it.
type candidate struct {
	place    placement.Placement
	strategy string
}

// candidatesLocked is the scheduler's one candidate generator, shared by
// admission, rebalancing, and drain migration. For each thread count in
// turn it tries pack, spread, and quiet-socket over avail, keeping every
// placement a strategy can fill; duplicates are kept, since callers count
// and skip them differently. Quiet-socket ranks sockets by an occupancy
// snapshot taken here. The caller must hold mu.
func (s *Scheduler) candidatesLocked(avail []topology.Context, counts ...int) []candidate {
	busy := s.socketOccupancyLocked()
	out := make([]candidate, 0, 3*len(counts))
	for _, n := range counts {
		for _, c := range [...]candidate{
			{packFree(avail, n), "pack"},
			{spreadFree(avail, n, s.md.Topo), "spread"},
			{quietSocketFree(busy, avail, n, s.md.Topo), "quiet-socket"},
		} {
			if c.place != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// packFree takes the first n free contexts in dense order.
func packFree(free []topology.Context, n int) placement.Placement {
	if n > len(free) {
		return nil
	}
	return placement.Placement(append([]topology.Context(nil), free[:n]...))
}

// spreadFree prefers whole idle cores round-robin across sockets, then
// second contexts.
func spreadFree(free []topology.Context, n int, m topology.Machine) placement.Placement {
	if n > len(free) {
		return nil
	}
	freeSet := make(map[topology.Context]bool, len(free))
	for _, c := range free {
		freeSet[c] = true
	}
	var first, second []topology.Context
	for slot := 0; slot < m.ThreadsPerCore; slot++ {
		for core := 0; core < m.CoresPerSocket; core++ {
			for sock := 0; sock < m.Sockets; sock++ {
				c := topology.Context{Socket: sock, Core: core, Slot: slot}
				if !freeSet[c] {
					continue
				}
				if slot == 0 {
					first = append(first, c)
				} else {
					second = append(second, c)
				}
			}
		}
	}
	ordered := append(first, second...)
	if n > len(ordered) {
		return nil
	}
	return placement.Placement(ordered[:n])
}

// socketOccupancyLocked counts occupied contexts per socket — the foreign-
// occupancy snapshot quiet-socket placement ranks sockets by. It walks the
// running placements, which hold exactly the occupied contexts, rather than
// the occupancy map: the generator snapshots once per call (once per job in
// Rebalance), and a few slices iterate faster than a map of every context.
func (s *Scheduler) socketOccupancyLocked() []int {
	busy := make([]int, s.md.Topo.Sockets)
	for _, a := range s.running {
		for _, c := range a.Placement {
			busy[c.Socket]++
		}
	}
	return busy
}

// quietSocketFree fills sockets in increasing order of foreign occupancy
// (busy[socket] = occupied contexts, snapshotted under the scheduler lock),
// isolating the new job from running ones where possible.
func quietSocketFree(busy []int, free []topology.Context, n int, m topology.Machine) placement.Placement {
	if n > len(free) {
		return nil
	}
	order := make([]int, m.Sockets)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return busy[order[a]] < busy[order[b]] })

	bySocket := make([][]topology.Context, m.Sockets)
	for _, c := range free {
		bySocket[c.Socket] = append(bySocket[c.Socket], c)
	}
	var out placement.Placement
	for _, sock := range order {
		for _, c := range bySocket[sock] {
			if len(out) == n {
				return out
			}
			out = append(out, c)
		}
	}
	if len(out) == n {
		return out
	}
	return nil
}
