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
// would over-subscribe a resource beyond a configured factor. Rebalance
// advice and drain migration re-place a running job with the same
// generator and the same search (searchLocked), which scores each distinct
// candidate once against the rest of the mix; only their selection rules
// differ.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	// in seconds under the joint model at the moment of admission (later
	// arrivals can change actual behaviour).
	Speedup float64
	Time    float64
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
	// placed is core.PlacedDigest of digest and Placement, the job's word in
	// every cache key of a mix it runs in; placeLocked refreshes it whenever
	// Placement changes.
	work           *core.Workload
	digest, placed core.Digest
}

// Config tunes the scheduler.
type Config struct {
	// AdmissionThreshold rejects candidates whose combined predicted
	// over-subscription exceeds this factor on any resource; 0 disables
	// admission control.
	AdmissionThreshold float64
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
	// size, top-k alternative placements, cache statistics, typed
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
// topology.Machine.ContextIndex, an occupied context pointing at the
// Assignment holding it; per-socket occupancy counts and the running mix in
// job-ID order are kept up to date as jobs are placed and released; and the
// decision loop writes its context lists, candidates and mix into
// per-scheduler scratch guarded by mu (DESIGN.md §9). Scratch results stay
// valid only until the next call that writes the same scratch; a placement
// that outlives the operation — a committed placement, a Move's To, a
// Migration's To — is copied out.
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
	// running maps a job ID to its assignment; mix holds the same
	// assignments sorted by job ID, the order every joint score reads them in.
	//pandia:guardedby(mu)
	running map[string]*Assignment
	//pandia:guardedby(mu)
	mix []*Assignment
	// owner[i] is the assignment holding ctxs[i], nil when it is free, and
	// busy[k] counts socket k's owned contexts; setOwnerLocked keeps both.
	//pandia:guardedby(mu)
	owner []*Assignment
	//pandia:guardedby(mu)
	busy []int
	// health[i] is ctxs[i]'s state; unhealthy counts the entries that are
	// not Healthy.
	//pandia:guardedby(mu)
	health []Health
	//pandia:guardedby(mu)
	unhealthy int
	// tokens / lastRefill implement the admission token bucket;
	// lastRefill is a clock reading in seconds.
	//pandia:guardedby(mu)
	tokens float64
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

	// Decision-loop scratch. cands and slab are candidatesLocked's
	// candidates and the contexts their placements share, valid until its
	// next call; order is the generator's socket order; counts is the
	// thread-count ladder; mixJobs and mixDigests are mixLocked's placed
	// workloads and placed digests, valid until its next call.
	//pandia:guardedby(mu)
	cands []candidate
	//pandia:guardedby(mu)
	slab []topology.Context
	//pandia:guardedby(mu)
	order []int
	//pandia:guardedby(mu)
	counts []int
	//pandia:guardedby(mu)
	mixJobs []core.PlacedWorkload
	//pandia:guardedby(mu)
	mixDigests []core.Digest
	// results and speedups are searchLocked's results and the slab their
	// per-job speedups share, valid until its next call.
	//pandia:guardedby(mu)
	results []searchResult
	//pandia:guardedby(mu)
	speedups []float64
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
		owner:   make([]*Assignment, m.TotalContexts()),
		busy:    make([]int, m.Sockets),
		health:  make([]Health, m.TotalContexts()),
		co:      co,
		order:   make([]int, m.Sockets),
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
	var out []topology.Context
	for i, c := range s.ctxs {
		if s.usableLocked(i, nil) {
			out = append(out, c)
		}
	}
	return out
}

// usableLocked reports whether self may be placed on ctxs[i]: the context
// is healthy and free or held by self, so a re-placed job counts its own
// contexts as free. Cordoned contexts the job occupies are not usable, so
// re-placement migrates it off a cordon. self nil (or an assignment not yet
// placed) admits the free healthy contexts. The caller must hold mu.
func (s *Scheduler) usableLocked(i int, self *Assignment) bool {
	o := s.owner[i]
	return (o == nil || o == self) && s.health[i] == Healthy
}

// setOwnerLocked records a as the holder of p's contexts, nil freeing them,
// and keeps the per-socket counts in step. The caller must hold mu.
func (s *Scheduler) setOwnerLocked(p placement.Placement, a *Assignment) {
	for _, c := range p {
		i := s.md.Topo.ContextIndex(c)
		if s.owner[i] != nil {
			s.busy[c.Socket]--
		}
		if a != nil {
			s.busy[c.Socket]++
		}
		s.owner[i] = a
	}
}

// placeLocked (re)places a on p, a placement the caller hands over: it
// releases a's current contexts, claims p's and refreshes a's placed digest.
// Every change to a running assignment's Placement goes through here. The
// caller must hold mu.
func (s *Scheduler) placeLocked(a *Assignment, p placement.Placement) {
	s.setOwnerLocked(a.Placement, nil)
	a.Placement = p
	a.placed = core.PlacedDigest(a.digest, p)
	s.setOwnerLocked(p, a)
}

// mixIndexLocked returns where job id sits in the sorted mix, or would be
// inserted, and whether it is there. The caller must hold mu.
func (s *Scheduler) mixIndexLocked(id string) (int, bool) {
	return slices.BinarySearchFunc(s.mix, id, func(a *Assignment, id string) int {
		return strings.Compare(a.Job.ID, id)
	})
}

// admitLocked adds a, already placed, to the running set and the sorted mix.
// The caller must hold mu and have checked that a's job ID is not running.
func (s *Scheduler) admitLocked(a *Assignment) {
	i, _ := s.mixIndexLocked(a.Job.ID)
	s.mix = slices.Insert(s.mix, i, a)
	s.running[a.Job.ID] = a
	metRunningJobs.Set(float64(len(s.running)))
}

// releaseLocked frees a's contexts and drops it from the running set and the
// sorted mix. The caller must hold mu, and a must be running.
func (s *Scheduler) releaseLocked(a *Assignment) {
	s.setOwnerLocked(a.Placement, nil)
	if i, ok := s.mixIndexLocked(a.Job.ID); ok {
		s.mix = slices.Delete(s.mix, i, i+1)
	}
	delete(s.running, a.Job.ID)
	metRunningJobs.Set(float64(len(s.running)))
}

// Assignments returns copies of the running assignments sorted by job ID.
func (s *Scheduler) Assignments() []*Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Assignment, len(s.mix))
	for i, a := range s.mix {
		out[i] = a.clone()
	}
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

	var sc opScope
	s.beginOpLocked(&sc, "submit", job.ID)
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

	free := 0
	for i := range s.ctxs {
		if s.usableLocked(i, nil) {
			free++
		}
	}
	if free == 0 {
		aerr := &AdmissionError{JobID: job.ID, Kind: AdmitNoCapacity,
			Reason: "no free healthy hardware contexts"}
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		return nil, aerr
	}
	sc.phase(SpanPhaseSweep, true)
	candidates := s.candidatesLocked(nil, s.candidateCountsLocked(job, free)...)
	if len(candidates) == 0 {
		sc.phase(SpanPhaseSweep, false)
		aerr := &AdmissionError{JobID: job.ID, Kind: AdmitNoCapacity,
			Reason: fmt.Sprintf("no feasible placement (%d free contexts)", free)}
		sc.rejected(aerr.Kind.String(), aerr.Reason)
		return nil, aerr
	}

	// Joint score of each candidate with the running mix; the new job rides
	// in the mix's last slot, as an assignment not placed yet.
	asgn = &Assignment{Job: job, work: work, digest: core.DigestWorkload(work)}
	base, baseDigests := s.mixLocked()
	jobs := append(base, core.PlacedWorkload{Workload: work})
	digests := append(baseDigests, core.Digest{})
	last := len(jobs) - 1
	results, err := s.searchLocked(jobs, digests, last, asgn, candidates, sc.id)
	sc.phase(SpanPhaseSweep, false)
	if err != nil {
		sc.errored(err)
		return nil, err
	}
	if sc.journaling {
		// The distinct placements scored, not the generator's duplicates.
		sc.rec.Candidates = len(results)
	}

	// best is the highest-scoring result that passes the threshold and SLO
	// policies; bestAny ignores them and is what AdmitDegraded falls back to
	// when nothing passes. Ties keep the first.
	best, bestAny := -1, -1
	var policyViolations []string
	sawSLO := false
	// alts holds every result's journal entry, nil unless journaling.
	var alts []obs.Alternative
	for i := range results {
		r := &results[i]
		// The SLO metric doubles as the journal's per-candidate slowdown, so
		// compute it whenever either consumer wants it.
		slow := 0.0
		if s.cfg.SlowdownSLO > 0 || sc.journaling {
			jobs[last].Placement = r.place
			slow = worstSlowdown(r.speedups, jobs)
		}
		if bestAny < 0 || r.score > results[bestAny].score {
			bestAny = i
		}
		var reject string
		if s.cfg.AdmissionThreshold > 0 && r.worst > s.cfg.AdmissionThreshold {
			reject = fmt.Sprintf(
				"%s: oversubscription %.2f > threshold %.2f", r.strategy,
				r.worst, s.cfg.AdmissionThreshold)
		} else if s.cfg.SlowdownSLO > 0 && slow > s.cfg.SlowdownSLO {
			reject = fmt.Sprintf(
				"%s: worst slowdown %.2f > SLO %.2f", r.strategy, slow, s.cfg.SlowdownSLO)
			sawSLO = true
		}
		if sc.journaling {
			alts = append(alts, obs.Alternative{
				Placement: r.place.String(), Strategy: r.strategy,
				Score: r.score, Slowdown: slow, Reject: reject,
			})
		}
		if reject != "" {
			policyViolations = append(policyViolations, reject)
			continue
		}
		if best < 0 || r.score > results[best].score {
			best = i
		}
	}
	if best < 0 {
		if !s.cfg.AdmitDegraded || bestAny < 0 {
			kind := AdmitOversubscribed
			if sawSLO {
				kind = AdmitSLOExceeded
				metRejectSLO.Inc()
			}
			aerr := &AdmissionError{JobID: job.ID, Kind: kind,
				Reason: "every candidate violates admission policy: " + strings.Join(policyViolations, "; ")}
			if sc.journaling {
				for _, alt := range alts {
					sc.rec.AddAlternative(alt)
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
	won := &results[best]

	// The winner's placement lives in candidate scratch; commit a copy.
	place := append(placement.Placement(nil), won.place...)
	if s.cfg.PlacementCheck != nil {
		if cerr := s.cfg.PlacementCheck(place); cerr != nil {
			metRejectCheck.Inc()
			perr := &PlacementCheckError{JobID: job.ID, Err: cerr}
			sc.rejected("placement-check", perr.Error())
			return nil, perr
		}
	}

	asgn.Strategy, asgn.Speedup = won.strategy, won.speedups[last]
	// T1 over speedup is how a full Prediction derives its Time.
	asgn.Time = work.T1 / won.speedups[last] //nanguard:ok the solver errors unless every speedup is > 0
	if len(degradedReasons) > 0 {
		asgn.Degraded = true
		asgn.DegradedReasons = degradedReasons
		metDegradedAdmits.Inc()
	}
	s.placeLocked(asgn, place)
	s.admitLocked(asgn)
	if sc.journaling {
		for i, alt := range alts {
			if i == best {
				sc.rec.Score = alt.Score
				continue
			}
			sc.rec.AddAlternative(alt)
		}
		sc.rec.Placement = alts[best].Placement
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
// speedups[i] is jobs[i]'s predicted joint speedup.
func worstSlowdown(speedups []float64, jobs []core.PlacedWorkload) float64 {
	worst := 0.0
	for i, sp := range speedups {
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
	s.releaseLocked(a)
	return nil
}

// Predict re-predicts the whole running mix jointly (for monitoring). The
// prediction runs under the lock so it can reuse the scheduler's pooled
// CoPredictor.
func (s *Scheduler) Predict() (*core.CoPrediction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, digests := s.mixLocked()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("scheduler: nothing running")
	}
	var sc opScope
	s.beginOpLocked(&sc, "predict", "")
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
// stored, replacing a compact entry. digests[i] is jobs[i]'s placed digest
// (core.PlacedDigest). span is the requesting operation's decision id (0
// outside one): it brackets the cache lookup in a span and rides into the
// solver's trace events, but is excluded from the cache key (DESIGN.md §12).
// The caller must hold mu.
func (s *Scheduler) predictMixLocked(jobs []core.PlacedWorkload, digests []core.Digest, span int64) (*core.CoPrediction, error) {
	var ms mixScore
	co := s.lookupLocked(digests, span, &ms)
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
// cache into *ms: a hit serves the stored score, a miss runs a score-only
// solve, without re-validating the workloads (every job's is the snapshot
// Submit validated), and stores it as a compact entry. Speedups live in s.scoreBuf until
// the next call; digests and span are as for predictMixLocked. The caller
// must hold mu.
func (s *Scheduler) scoreMixLocked(jobs []core.PlacedWorkload, digests []core.Digest, span int64, ms *mixScore) error {
	s.lookupLocked(digests, span, ms)
	if !ms.hit {
		var err error
		if ms.CoScore, err = s.co.ScoreValidated(jobs, s.scoreBuf); err != nil {
			return err
		}
		if s.coCache != nil {
			s.coCache.StoreScore(ms.key, ms.verify, ms.CoScore)
		}
	}
	s.scoreBuf = ms.Speedups
	return nil
}

// mixScore is one mix's cache lookup and score: whether the lookup hit, and
// the cache key a solve stores its result under.
type mixScore struct {
	core.CoScore
	hit         bool
	key, verify uint64
}

// lookupLocked stamps span on the solver, then derives the mix's cache key
// from the jobs' placed digests and makes the one counted lookup, bracketed
// in a cache-lookup span. It writes the key and the score into *ms and
// returns the full prediction when a full entry served it. With the cache
// disabled it reports a miss. The caller must hold mu.
func (s *Scheduler) lookupLocked(digests []core.Digest, span int64, ms *mixScore) (full *core.CoPrediction) {
	s.co.SetSpan(span)
	if s.coCache == nil {
		*ms = mixScore{}
		return nil
	}
	tr := s.cfg.Tracer
	tracing := span != 0 && tr != nil && tr.Enabled()
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanBegin, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	ms.key, ms.verify = s.coCache.Key(s.digest, digests)
	ms.CoScore, full, ms.hit = s.coCache.LookupScore(ms.key, ms.verify, s.scoreBuf)
	if tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanEnd, Span: span, Arg: SpanPhaseCache, Job: spanRow})
	}
	return full
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

// mixLocked returns the running jobs' placed workload snapshots and placed
// digests in s.mix order, sorted by job ID. Floating-point accumulation in
// the joint solver is order-sensitive and scenario replays diff outcomes
// byte-for-byte, so the mix never follows map order. Both are scratch,
// valid until the next call, and keep one spare slot of capacity, so Submit
// appends the arriving job without growing them. The caller must hold mu.
func (s *Scheduler) mixLocked() ([]core.PlacedWorkload, []core.Digest) {
	n := len(s.mix)
	if cap(s.mixJobs) <= n {
		s.mixJobs = make([]core.PlacedWorkload, 2*n+1)
		s.mixDigests = make([]core.Digest, 2*n+1)
	}
	jobs, digests := s.mixJobs[:n], s.mixDigests[:n]
	for i, a := range s.mix {
		jobs[i] = core.PlacedWorkload{Workload: a.work, Placement: a.Placement}
		digests[i] = a.placed
	}
	return jobs, digests
}

// candidateCountsLocked resolves the thread-count ladder for a job into
// scratch, valid until the next call: Job.Threads when the job requests a
// count (nothing when it does not fit), else 1, 2, 4, ... up to free, and
// free itself. The caller must hold mu.
func (s *Scheduler) candidateCountsLocked(job Job, free int) []int {
	out := s.counts[:0]
	if job.Threads > 0 {
		if job.Threads <= free {
			out = append(out, job.Threads)
		}
	} else {
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

// seenBefore reports whether an earlier candidate has placement p, in the
// same context order.
func seenBefore(earlier []candidate, p placement.Placement) bool {
	return slices.ContainsFunc(earlier, func(c candidate) bool { return slices.Equal(c.place, p) })
}

// searchResult is one scored candidate: the mix's aggregate score and worst
// over-subscription with the candidate in place, and every job's speedup in
// the mix, in mix order.
type searchResult struct {
	candidate
	score, worst float64
	speedups     []float64
}

// searchLocked is the scheduler's one candidate search, shared by Submit,
// Rebalance and the drain migration. It places jobs[slot], the job of
// assignment self, on each distinct candidate in generator order — skipping
// a repeat of an earlier placement, and one holding exactly self's current
// contexts, which is no move — digests the placement once into
// digests[slot] and scores the mix through scoreMixLocked; span is as for
// predictMixLocked. The slot's placement and digest are restored before it
// returns. The results and their speedups are scratch, valid until the next
// call, and their placements are the candidates' scratch; the first scoring
// error ends the search. The caller must hold mu.
func (s *Scheduler) searchLocked(jobs []core.PlacedWorkload, digests []core.Digest, slot int, self *Assignment, cands []candidate, span int64) ([]searchResult, error) {
	cur, curDigest, n := jobs[slot].Placement, digests[slot], len(jobs)
	if cap(s.results) < len(cands) {
		s.results = make([]searchResult, len(cands))
	}
	if cap(s.speedups) < n*len(cands) {
		s.speedups = make([]float64, n*len(cands))
	}
	out, buf := s.results[:0], s.speedups
	var ms mixScore
	for i, c := range cands {
		if seenBefore(cands[:i], c.place) || len(c.place) == len(cur) && s.ownedLocked(c.place, self) {
			continue
		}
		jobs[slot].Placement, digests[slot] = c.place, core.PlacedDigest(self.digest, c.place)
		if err := s.scoreMixLocked(jobs, digests, span, &ms); err != nil {
			jobs[slot].Placement, digests[slot] = cur, curDigest
			return nil, err
		}
		sp := buf[:n:n]
		buf = buf[n:]
		copy(sp, ms.Speedups)
		out = append(out, searchResult{c, aggregateThroughput(ms.CoScore), ms.WorstOversubscription, sp})
	}
	jobs[slot].Placement, digests[slot] = cur, curDigest
	return out, nil
}

// ownedLocked reports whether a holds every context of p. A placement never
// repeats a context, so when p is as long as a's placement this means p is a
// permutation of it. The caller must hold mu.
func (s *Scheduler) ownedLocked(p placement.Placement, a *Assignment) bool {
	for _, c := range p {
		if s.owner[s.md.Topo.ContextIndex(c)] != a {
			return false
		}
	}
	return true
}

// candidatesLocked is the scheduler's one candidate generator, shared by
// admission, rebalancing, and drain migration. Each strategy is one walk of
// the contexts usableLocked admits for self, capped at the largest count:
// pack walks dense order, spread walks spreadOrder (whole idle cores first,
// round-robin across sockets, then second contexts), and quiet-socket walks
// each socket's contexts in dense order, the sockets ranked by
// quietOrderLocked — by occupancy that counts every owned context, the
// re-placed job's own included. For each count n in turn the candidates are
// the n-context prefixes of the pack, spread and quiet-socket walks, each
// kept only when its walk reached n; duplicates are kept, and searchLocked
// scores each placement once. The candidates and their placements are
// scratch, valid until the next call, and the placements of one strategy
// share their contexts; a caller keeping a placement copies it. The caller
// must hold mu.
//
//pandia:noalloc
func (s *Scheduler) candidatesLocked(self *Assignment, counts ...int) []candidate {
	most := 0
	for _, n := range counts {
		most = max(most, n)
	}
	if cap(s.slab) < 3*most {
		s.slab = make([]topology.Context, 3*most) //alloccheck:ok scratch grows to the largest request, then is reused
	}
	if cap(s.cands) < 3*len(counts) {
		s.cands = make([]candidate, 3*len(counts)) //alloccheck:ok scratch grows to the largest request, then is reused
	}
	// Pack is one run over every context; the sockets' runs are perSocket long.
	var whole [1]int
	perSocket := s.md.Topo.CoresPerSocket * s.md.Topo.ThreadsPerCore
	walks := [...]candidate{
		{s.walkLocked(self, whole[:], len(s.ctxs), s.slab[:most:most]), "pack"},
		{s.walkLocked(self, s.spreadOrder, 1, s.slab[most:2*most:2*most]), "spread"},
		{s.walkLocked(self, s.quietOrderLocked(), perSocket, s.slab[2*most:3*most:3*most]), "quiet-socket"},
	}
	out, k := s.cands[:3*len(counts)], 0
	for _, n := range counts {
		for _, w := range walks[:] {
			if n <= len(w.place) {
				out[k] = candidate{w.place[:n:n], w.strategy}
				k++
			}
		}
	}
	return out[:k]
}

// walkLocked fills dst with the contexts usableLocked admits for self, in
// the order of runs: entry r of runs stands for the dense indices r·run up
// to r·run+run-1. It stops when dst is full or the runs are spent and
// returns the filled prefix. The caller must hold mu.
func (s *Scheduler) walkLocked(self *Assignment, runs []int, run int, dst []topology.Context) placement.Placement {
	if len(dst) == 0 {
		return dst
	}
	k := 0
	for _, r := range runs {
		for i, end := r*run, r*run+run; i < end; i++ {
			if s.usableLocked(i, self) {
				dst[k] = s.ctxs[i]
				if k++; k == len(dst) {
					return dst
				}
			}
		}
	}
	return dst[:k]
}

// quietOrderLocked orders the sockets by increasing occupancy, ties by
// socket number, into scratch. The occupancy counts every owned context, a
// re-placed job's own included. The caller must hold mu.
func (s *Scheduler) quietOrderLocked() []int {
	busy, order := s.busy, s.order
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
