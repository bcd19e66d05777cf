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
	"errors"
	"fmt"
	"math"
	"slices"
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

// Assignment records a running job's placement and its joint prediction at
// admission time.
type Assignment struct {
	Job       Job
	Placement placement.Placement
	// Speedup and Time are the job's predicted speedup and execution time
	// under the joint model at the moment of admission (later arrivals can
	// change actual behaviour).
	Speedup float64
	//pandia:unit seconds
	Time float64
	// Strategy names the candidate generator that produced the placement.
	Strategy string
	// Degraded marks an admission that violated an admission policy but
	// was accepted anyway under Config.AdmitDegraded (mirroring
	// core.Options.AllowDegraded); DegradedReasons names the violated
	// policies.
	Degraded        bool
	DegradedReasons []string

	// work is the snapshot of *Job.Workload taken at Submit, and digest its
	// cache digest. Every later score and cache key reads these, never the
	// caller's workload, so mutating that afterwards changes nothing here.
	work   *core.Workload
	digest core.Digest
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
//
// Its state is dense: occupancy and health are slices indexed by
// topology.Machine.ContextIndex, and the decision loop writes its context
// lists, candidates and mix into per-scheduler scratch guarded by mu
// (DESIGN.md §9). Scratch results stay valid only until the next call that
// writes the same scratch; a placement that outlives the operation — a
// committed placement, a Move's To, a Migration's To — is copied out.
type Scheduler struct {
	// md is the scheduler's own copy of the machine description, taken at
	// New; the predictor and every cache key read it, never the caller's.
	md    *machine.Description
	cfg   Config
	clock obs.Clock
	// ctxs lists the machine's contexts in dense order, built once at New;
	// owner and health are indexed alike. Dense order is sortContexts
	// order, so a scan over ctxs yields sorted context lists.
	ctxs []topology.Context
	// spreadOrder lists dense context indices in spread order: slot, then
	// core, then socket, so whole idle cores come first, round-robin across
	// sockets.
	spreadOrder []int
	// digest is the machine-and-options prefix of every cache key, taken
	// once at New from md and the predictor's options.
	digest core.Digest

	mu sync.Mutex
	//pandia:guardedby(mu)
	running map[string]*Assignment
	// owner[i] is the ID of the job holding ctxs[i], "" when it is free.
	//pandia:guardedby(mu)
	owner []string
	// health[i] is ctxs[i]'s state; unhealthy counts the entries that are
	// not Healthy.
	//pandia:guardedby(mu)
	health []Health
	//pandia:guardedby(mu)
	unhealthy int
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
	// coCache memoizes joint scores and predictions across Submit, Predict,
	// Rebalance, and drain candidate scoring; nil when
	// Config.DisablePredictionCache.
	// The cache itself is concurrency-safe, but it is only touched under mu
	// alongside co.
	//pandia:guardedby(mu)
	coCache *core.CoCache
	// scoreBuf is the scratch the score path writes candidate speedups into.
	//pandia:guardedby(mu)
	scoreBuf []float64

	// Decision-loop scratch. avail is availLocked's result; cands and slab
	// are candidatesLocked's candidates and the contexts their placements
	// share, valid until its next call; busy, order and isFree are the
	// generator's per-socket and per-context tables; counts is the
	// thread-count ladder; mixIDs, mixJobs and mixDigests are mixLocked's
	// running mix, valid until its next call.
	//pandia:guardedby(mu)
	avail []topology.Context
	//pandia:guardedby(mu)
	cands []candidate
	//pandia:guardedby(mu)
	slab []topology.Context
	//pandia:guardedby(mu)
	busy []int
	//pandia:guardedby(mu)
	order []int
	//pandia:guardedby(mu)
	isFree []bool
	//pandia:guardedby(mu)
	counts []int
	//pandia:guardedby(mu)
	mixIDs []string
	//pandia:guardedby(mu)
	mixJobs []core.PlacedWorkload
	//pandia:guardedby(mu)
	mixDigests []core.Digest
}

// New builds a scheduler for the described machine. The scheduler keeps its
// own copy of *md, so later changes to the caller's description affect no
// score or decision. The policy values AdmissionThreshold, SlowdownSLO,
// AdmissionRate and AdmissionBurst must be finite and non-negative (0
// disables each policy).
func New(desc *machine.Description, cfg Config) (*Scheduler, error) {
	if err := errors.Join(
		checkPolicyValue("AdmissionThreshold", cfg.AdmissionThreshold), checkPolicyValue("SlowdownSLO", cfg.SlowdownSLO),
		checkPolicyValue("AdmissionRate", cfg.AdmissionRate), checkPolicyValue("AdmissionBurst", cfg.AdmissionBurst),
	); err != nil {
		return nil, err
	}
	if desc == nil {
		return nil, fmt.Errorf("scheduler: nil machine description")
	}
	snapshot := *desc // all values: a complete copy
	md := &snapshot
	co, err := core.NewCoPredictor(md, core.Options{Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.WallClock()
	}
	m := md.Topo
	s := &Scheduler{
		md:      md,
		cfg:     cfg,
		clock:   clock,
		ctxs:    m.Contexts(),
		digest:  core.DigestMachine(md, co.Options()),
		running: make(map[string]*Assignment),
		owner:   make([]string, m.TotalContexts()),
		health:  make([]Health, m.TotalContexts()),
		co:      co,
		avail:   make([]topology.Context, m.TotalContexts()),
		busy:    make([]int, m.Sockets),
		order:   make([]int, m.Sockets),
		isFree:  make([]bool, m.TotalContexts()),
	}
	s.spreadOrder = make([]int, 0, m.TotalContexts())
	for slot := 0; slot < m.ThreadsPerCore; slot++ {
		for core := 0; core < m.CoresPerSocket; core++ {
			for sock := 0; sock < m.Sockets; sock++ {
				s.spreadOrder = append(s.spreadOrder, m.ContextIndex(topology.Context{Socket: sock, Core: core, Slot: slot}))
			}
		}
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

// checkPolicyValue rejects a non-finite or negative policy value, the
// scenario parser's rule for the same settings.
func checkPolicyValue(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("scheduler: non-finite or negative %s %g", name, v)
	}
	return nil
}

// Machine returns the scheduler's machine shape.
func (s *Scheduler) Machine() topology.Machine { return s.md.Topo }

// FreeContexts returns the unoccupied healthy hardware contexts in dense
// order.
func (s *Scheduler) FreeContexts() []topology.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]topology.Context(nil), s.availLocked("")...)
}

// availLocked lists, in dense order, the healthy contexts that are free or
// held by job id: where id may be placed, or re-placed with its own
// contexts counted as free. Cordoned contexts the job occupies are left
// out, so re-placement migrates it off a cordon. id "" lists the free
// contexts. The result is scratch, valid until the next call. The caller
// must hold mu.
func (s *Scheduler) availLocked(id string) []topology.Context {
	out, k := s.avail, 0
	for i, c := range s.ctxs {
		if o := s.owner[i]; (o == "" || o == id) && s.health[i] == Healthy {
			out[k] = c
			k++
		}
	}
	return out[:k]
}

// setOwnerLocked records id as the holder of p's contexts; id "" frees
// them. The caller must hold mu.
func (s *Scheduler) setOwnerLocked(p placement.Placement, id string) {
	for _, c := range p {
		s.owner[s.md.Topo.ContextIndex(c)] = id
	}
}

// Assignments returns copies of the running assignments sorted by job ID.
func (s *Scheduler) Assignments() []*Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Assignment, 0, len(s.running))
	for _, a := range s.running {
		out = append(out, a.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.ID < out[j].Job.ID })
	return out
}

// Submit admits a job: it evaluates candidate placements over the free
// contexts jointly with everything running and commits the best one. The
// returned assignment is a copy; later moves do not change it.
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
	// The job is scored and committed from a snapshot of its workload (all
	// values), digested once: a caller mutating *job.Workload afterwards
	// changes no later score and cannot make a cache key stale.
	snapshot := *job.Workload
	work := &snapshot
	if err := work.Validate(); err != nil {
		return nil, err
	}
	if work.Demand == (counters.Rates{}) {
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

	free := s.availLocked("")
	if len(free) == 0 {
		aerr := &AdmissionError{JobID: job.ID, Kind: AdmitNoCapacity,
			Reason: "no free healthy hardware contexts"}
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		return nil, aerr
	}
	sc.phase(SpanPhaseSweep, true)
	candidates := s.candidatesLocked(free, s.candidateCountsLocked(job, len(free))...)
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

	// Joint score of each candidate with the running mix; the new job rides
	// in the mix's last slot.
	_, base, baseDigests := s.mixLocked()
	// baseBound is the running mix's summed Amdahl speedups: with the new
	// job's own Amdahl bound added it upper-bounds any candidate's aggregate
	// throughput (Speedup <= AmdahlSpeedup per job, pinned by the model
	// invariants), which lets clearly dominated candidates skip the joint
	// solve below.
	baseBound := 0.0
	for _, pw := range base {
		baseBound += pw.Workload.AmdahlSpeedup(len(pw.Placement))
	}
	digest := core.DigestWorkload(work)
	jobs := append(base, core.PlacedWorkload{Workload: work})
	digests := append(baseDigests, digest)
	last := len(jobs) - 1

	bestScore := -1.0
	var best scoredCandidate
	// bestAny is the best candidate ignoring the threshold/SLO policies —
	// what AdmitDegraded falls back to when nothing passes.
	bestAnyScore := -1.0
	var bestAny scoredCandidate
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
	for i, cand := range candidates {
		if seenBefore(candidates[:i], cand.place) {
			continue
		}
		// Dominance pruning: a candidate whose Amdahl upper bound cannot
		// strictly beat both incumbents can change neither best nor bestAny
		// (both require score > incumbent), so the solve is skipped. Both
		// incumbents start at -1, so nothing prunes before one candidate has
		// been scored — rejection reasons are unaffected.
		if bound := baseBound + work.AmdahlSpeedup(len(cand.place)); bound <= bestScore && bound <= bestAnyScore {
			metCandidatesPruned.Inc()
			prunedHere++
			continue
		}
		jobs[last].Placement = cand.place
		ms, err := s.scoreMixLocked(jobs, digests, sc.id)
		if err != nil {
			sc.phase(SpanPhaseSweep, false)
			sc.errored(err)
			return nil, err
		}
		score := aggregateThroughput(ms.CoScore)
		// The SLO metric doubles as the journal's per-candidate slowdown, so
		// compute it whenever either consumer wants it.
		slow := 0.0
		if s.cfg.SlowdownSLO > 0 || sc.journaling {
			slow = worstSlowdown(ms.CoScore, jobs)
		}
		if score > bestAnyScore {
			bestAnyScore = score
			bestAny = scoredCandidate{cand, ms.Speedups[last]}
		}
		var reject string
		if s.cfg.AdmissionThreshold > 0 && ms.WorstOversubscription > s.cfg.AdmissionThreshold {
			reject = fmt.Sprintf(
				"%s: oversubscription %.2f > threshold %.2f", cand.strategy,
				ms.WorstOversubscription, s.cfg.AdmissionThreshold)
		} else if s.cfg.SlowdownSLO > 0 && slow > s.cfg.SlowdownSLO {
			reject = fmt.Sprintf(
				"%s: worst slowdown %.2f > SLO %.2f", cand.strategy, slow, s.cfg.SlowdownSLO)
			sawSLO = true
		}
		if sc.journaling {
			evals = append(evals, candEval{
				placement: cand.place.String(), strategy: cand.strategy,
				score: score, slowdown: slow, reject: reject,
			})
		}
		if reject != "" {
			policyViolations = append(policyViolations, reject)
			continue
		}
		if score > bestScore {
			bestScore = score
			best = scoredCandidate{cand, ms.Speedups[last]}
		}
	}
	sc.phase(SpanPhaseSweep, false)
	if sc.journaling {
		sc.rec.Pruned = prunedHere
	}
	if best.place == nil {
		if !s.cfg.AdmitDegraded || bestAny.place == nil {
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

	// The winner's placement lives in candidate scratch; commit a copy.
	place := append(placement.Placement(nil), best.place...)
	if s.cfg.PlacementCheck != nil {
		if cerr := s.cfg.PlacementCheck(place); cerr != nil {
			metRejectCheck.Inc()
			perr := &PlacementCheckError{JobID: job.ID, Err: cerr}
			sc.rejected("placement-check", perr.Error())
			return nil, perr
		}
	}

	asgn = &Assignment{
		Job: job, Placement: place, Strategy: best.strategy, Speedup: best.speedup,
		// T1 over speedup is how a full Prediction derives its Time.
		Time: work.T1 / best.speedup, //nanguard:ok the solver errors unless every speedup is > 0
		work: work, digest: digest,
	}
	if len(degradedReasons) > 0 {
		asgn.Degraded = true
		asgn.DegradedReasons = degradedReasons
		metDegradedAdmits.Inc()
	}
	s.running[job.ID] = asgn
	s.setOwnerLocked(asgn.Placement, job.ID)
	metRunningJobs.Set(float64(len(s.running)))
	if sc.journaling {
		chosen := asgn.Placement.String()
		matched := false
		for _, ev := range evals {
			if !matched && ev.placement == chosen && ev.strategy == asgn.Strategy {
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
		sc.rec.Strategy = asgn.Strategy
		sc.rec.Outcome = "admitted"
		if asgn.Degraded {
			sc.rec.Outcome = "admitted-degraded"
			sc.rec.Reason = strings.Join(asgn.DegradedReasons, "; ")
		}
		sc.record()
		if asgn.Degraded {
			sc.incident("degraded-admission", job.ID, strings.Join(asgn.DegradedReasons, "; "))
		}
	}
	return asgn.clone(), nil
}

// clone returns a shallow copy of a, which callers may read without the
// scheduler lock: moves replace a running assignment's Placement, never
// write into it.
func (a *Assignment) clone() *Assignment {
	c := *a
	return &c
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
// worst-affected job is pushed from its contention-free scaling (the value
// a full Prediction carries as AmdahlSpeedup over its Speedup).
func worstSlowdown(sc core.CoScore, jobs []core.PlacedWorkload) float64 {
	worst := 0.0
	for i, sp := range sc.Speedups {
		if sp <= 0 {
			return math.Inf(1)
		}
		if sl := jobs[i].Workload.AmdahlSpeedup(len(jobs[i].Placement)) / sp; sl > worst {
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
	s.setOwnerLocked(a.Placement, "")
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
	_, jobs, digests := s.mixLocked()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("scheduler: nothing running")
	}
	sc := s.beginOpLocked("predict", "")
	defer sc.end()
	co, err := s.predictMixLocked(jobs, digests, sc.id)
	if err != nil {
		sc.errored(err)
		return nil, err
	}
	if sc.journaling {
		sc.rec.Outcome = "predicted"
		sc.rec.Candidates = len(jobs)
		sc.rec.Score = aggregateThroughput(co.Score(nil))
		sc.record()
	}
	return co, nil
}

// predictMixLocked jointly predicts one mix on the full path, through the
// shared prediction cache; callers treat the result as read-only. A full
// entry is served as is; otherwise the mix is solved and its full prediction
// stored, replacing a compact entry. digests[i] is jobs[i]'s workload
// digest. span is the requesting operation's decision id (0 outside one):
// it brackets the cache lookup in a span and rides into the solver's trace
// events, but is excluded from the cache key (DESIGN.md §12). The caller
// must hold mu.
func (s *Scheduler) predictMixLocked(jobs []core.PlacedWorkload, digests []core.Digest, span int64) (*core.CoPrediction, error) {
	ms, co := s.lookupLocked(jobs, digests, span)
	if co != nil {
		return co, nil
	}
	co, err := s.co.Predict(jobs)
	if err == nil && s.coCache != nil {
		s.coCache.Store(ms.key, ms.verify, co)
	}
	return co, err
}

// scoreMixLocked scores one candidate mix through the shared prediction
// cache: a hit serves the stored score, a miss runs a score-only solve and
// stores it as a compact entry. Speedups live in s.scoreBuf until the next
// call; digests and span are as for predictMixLocked. The caller must hold
// mu.
func (s *Scheduler) scoreMixLocked(jobs []core.PlacedWorkload, digests []core.Digest, span int64) (mixScore, error) {
	ms, _ := s.lookupLocked(jobs, digests, span)
	if !ms.hit {
		var err error
		if ms.CoScore, err = s.co.Score(jobs, s.scoreBuf); err != nil {
			return ms, err
		}
		if s.coCache != nil {
			s.coCache.StoreScore(ms.key, ms.verify, ms.CoScore)
		}
	}
	s.scoreBuf = ms.Speedups
	return ms, nil
}

// mixScore is one mix's cache lookup and score: whether the lookup hit, and
// the cache key a solve stores its result under.
type mixScore struct {
	core.CoScore
	hit         bool
	key, verify uint64
}

// lookupLocked stamps span on the solver, then derives the mix's cache key
// from the precomputed digests and makes the one counted lookup, bracketed
// in a cache-lookup span. It returns the score and, beside it, the full
// prediction when a full entry served it. With the cache disabled it
// reports a miss. The caller must hold mu.
func (s *Scheduler) lookupLocked(jobs []core.PlacedWorkload, digests []core.Digest, span int64) (ms mixScore, full *core.CoPrediction) {
	s.co.SetSpan(span)
	if s.coCache == nil {
		return ms, nil
	}
	tr := s.cfg.Tracer
	tracing := span != 0 && tr != nil && tr.Enabled()
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanBegin, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	ms.key, ms.verify = s.coCache.Key(s.digest, jobs, digests)
	ms.CoScore, full, ms.hit = s.coCache.LookupScore(ms.key, ms.verify, s.scoreBuf)
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanEnd, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	return ms, full
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

// mixLocked returns the running jobs' IDs, placed workload snapshots and
// workload digests, all in sorted job-ID order. Floating-point accumulation
// in the joint solver is order-sensitive and scenario replays diff outcomes
// byte-for-byte, so iterating the running map directly would leak map order
// into the predictions. All three are scratch, valid until the next call;
// the job and digest slices keep one spare slot of capacity, so Submit
// appends the arriving job without growing them. The caller must hold mu.
func (s *Scheduler) mixLocked() ([]string, []core.PlacedWorkload, []core.Digest) {
	ids := s.mixIDs[:0]
	for id := range s.running {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s.mixIDs = ids
	n := len(ids)
	if cap(s.mixJobs) <= n {
		s.mixJobs = make([]core.PlacedWorkload, 2*n+1)
		s.mixDigests = make([]core.Digest, 2*n+1)
	}
	jobs, digests := s.mixJobs[:n], s.mixDigests[:n]
	for i, id := range ids {
		a := s.running[id]
		jobs[i] = core.PlacedWorkload{Workload: a.work, Placement: a.Placement}
		digests[i] = a.digest
	}
	return ids, jobs, digests
}

// candidateCountsLocked resolves the thread-count ladder for a job into
// scratch, valid until the next call. The caller must hold mu.
func (s *Scheduler) candidateCountsLocked(job Job, free int) []int {
	out := s.counts[:0]
	switch {
	case job.Threads > 0:
		if job.Threads <= free {
			out = append(out, job.Threads)
		}
	case len(s.cfg.CandidateThreadCounts) > 0:
		for _, n := range s.cfg.CandidateThreadCounts {
			if n >= 1 && n <= free {
				out = append(out, n)
			}
		}
	default:
		for n := 1; n <= free; n *= 2 {
			out = append(out, n)
		}
		if out[len(out)-1] != free {
			out = append(out, free)
		}
	}
	s.counts = out
	return out
}

// aggregateThroughput scores a joint prediction: the sum of every job's
// predicted speedup. Growing the new job raises its own term until its
// bottleneck saturates, and any interference it inflicts lowers the others'
// terms, so the maximum balances the new job's progress against the damage
// it does.
func aggregateThroughput(sc core.CoScore) float64 {
	var sum float64
	for _, sp := range sc.Speedups {
		sum += sp
	}
	return sum
}

// candidate is one generated placement and the strategy that produced it.
type candidate struct {
	place    placement.Placement
	strategy string
}

// scoredCandidate is a candidate with the new job's predicted speedup in
// its mix.
type scoredCandidate struct {
	candidate
	speedup float64
}

// seenBefore reports whether an earlier candidate has placement p, in the
// same context order.
func seenBefore(earlier []candidate, p placement.Placement) bool {
	return slices.ContainsFunc(earlier, func(c candidate) bool { return slices.Equal(c.place, p) })
}

// candidatesLocked is the scheduler's one candidate generator, shared by
// admission, rebalancing, and drain migration. For each thread count in
// turn it tries pack, spread, and quiet-socket over avail, keeping every
// placement a strategy can fill; duplicates are kept, since callers count
// and skip them differently. Quiet-socket ranks sockets by an occupancy
// snapshot taken here. avail must be in dense order, as availLocked
// returns it. The candidates and their placements are scratch, valid until
// the next call; a caller keeping a placement copies it. The caller must
// hold mu.
//
//pandia:noalloc
func (s *Scheduler) candidatesLocked(avail []topology.Context, counts ...int) []candidate {
	need := 0
	for _, n := range counts {
		need += 3 * n
	}
	if cap(s.slab) < need {
		s.slab = make([]topology.Context, need) //alloccheck:ok scratch grows to the largest request, then is reused
	}
	if cap(s.cands) < 3*len(counts) {
		s.cands = make([]candidate, 3*len(counts)) //alloccheck:ok scratch grows to the largest request, then is reused
	}
	slab, out, k := s.slab[:need], s.cands[:3*len(counts)], 0
	order := s.quietOrderLocked()
	for _, n := range counts {
		for _, c := range [...]candidate{
			{packFree(avail, slab[:n:n]), "pack"},
			{s.spreadFreeLocked(avail, slab[n:2*n:2*n]), "spread"},
			{quietSocketFree(order, avail, slab[2*n:3*n:3*n]), "quiet-socket"},
		} {
			if c.place != nil {
				out[k] = c
				k++
			}
		}
		slab = slab[3*n:]
	}
	return out[:k]
}

// packFree fills dst with the first len(dst) free contexts in dense order.
func packFree(free, dst []topology.Context) placement.Placement {
	if len(dst) > len(free) {
		return nil
	}
	copy(dst, free)
	return dst
}

// spreadFreeLocked prefers whole idle cores round-robin across sockets,
// then second contexts: it fills dst with the free contexts met first in
// spreadOrder, marking them in the isFree table and clearing it again. The
// caller must hold mu.
func (s *Scheduler) spreadFreeLocked(free, dst []topology.Context) placement.Placement {
	n, m, isFree := len(dst), s.md.Topo, s.isFree
	if n > len(free) {
		return nil
	}
	for _, c := range free {
		isFree[m.ContextIndex(c)] = true
	}
	k := 0
	for _, i := range s.spreadOrder {
		if k == n {
			break
		}
		if isFree[i] {
			dst[k] = s.ctxs[i]
			k++
		}
	}
	for _, c := range free {
		isFree[m.ContextIndex(c)] = false
	}
	if k < n {
		return nil
	}
	return dst
}

// socketOccupancyLocked counts occupied contexts per socket into scratch —
// the foreign-occupancy snapshot quiet-socket placement ranks sockets by.
// The caller must hold mu.
func (s *Scheduler) socketOccupancyLocked() []int {
	busy := s.busy
	clear(busy)
	for i, id := range s.owner {
		if id != "" {
			busy[s.ctxs[i].Socket]++
		}
	}
	return busy
}

// quietOrderLocked orders the sockets by increasing occupancy, ties by
// socket number, into scratch. The caller must hold mu.
func (s *Scheduler) quietOrderLocked() []int {
	busy, order := s.socketOccupancyLocked(), s.order
	for i := range order {
		order[i] = i
	}
	// Stable insertion sort: a machine has a handful of sockets.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && busy[order[j]] < busy[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// quietSocketFree fills sockets in order (increasing foreign occupancy,
// snapshotted under the scheduler lock), isolating the new job from running
// ones where possible: dst takes the free contexts socket by socket.
func quietSocketFree(order []int, free, dst []topology.Context) placement.Placement {
	n := len(dst)
	if n > len(free) {
		return nil
	}
	k := 0
	for _, sock := range order {
		for _, c := range free {
			if k == n {
				return dst
			}
			if c.Socket == sock {
				dst[k] = c
				k++
			}
		}
	}
	if k == n {
		return dst
	}
	return nil
}
