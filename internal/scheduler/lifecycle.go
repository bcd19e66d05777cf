package scheduler

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pandia/internal/core"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// Lifecycle metric handles (catalogued in DESIGN.md §9/§11).
var (
	metCordons      = obs.Default().Counter("scheduler.lifecycle.cordons")
	metUncordons    = obs.Default().Counter("scheduler.lifecycle.uncordons")
	metCtxFailures  = obs.Default().Counter("scheduler.lifecycle.context_failures")
	metEvictions    = obs.Default().Counter("scheduler.lifecycle.evictions")
	metDrains       = obs.Default().Counter("scheduler.lifecycle.drains")
	metMigrations   = obs.Default().Counter("scheduler.lifecycle.migrations")
	metDrainRetries = obs.Default().Counter("scheduler.lifecycle.drain_retries")
	metUnhealthy    = obs.Default().Gauge("scheduler.unhealthy_contexts")
)

// Health is the operational state of one hardware context.
type Health uint8

const (
	// Healthy contexts accept new placements.
	Healthy Health = iota
	// Cordoned contexts accept no new placements; threads already there
	// keep running (the state a drain passes through).
	Cordoned
	// Failed contexts are unusable; placing on one is a conflict and jobs
	// occupying one at failure time are evicted.
	Failed
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Cordoned:
		return "cordoned"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("health-%d", int(h))
}

// HealthCounts summarises the machine's context health.
type HealthCounts struct {
	Healthy  int `json:"healthy"`
	Cordoned int `json:"cordoned"`
	Failed   int `json:"failed"`
}

// Eviction records one job forcibly removed by Fail or by a drain that
// could not migrate it.
type Eviction struct {
	JobID string
	// Placement is the placement the job held when evicted.
	Placement placement.Placement
	// Reason explains the eviction ("context failed", "drain deadline
	// exceeded", ...).
	Reason string
}

// EvictionReport is the outcome of a Fail call.
type EvictionReport struct {
	// Failed lists the contexts newly marked failed, in dense order.
	Failed []topology.Context
	// Evicted lists the jobs removed because they occupied a failed
	// context, in job-ID order.
	Evicted []Eviction
}

// Migration records one job moved off drained contexts.
type Migration struct {
	JobID    string
	From, To placement.Placement
	// Attempts counts placement-validation attempts for the committed
	// placement (1 = first try).
	Attempts int
}

// DrainOptions bounds a drain. The zero value migrates with no retry
// budget and no deadline: a placement-validation failure evicts at once.
type DrainOptions struct {
	// MaxRetries is the per-job budget of extra placement-validation
	// attempts after the first.
	MaxRetries int
	// BackoffUnit is the virtual time in seconds charged for the first
	// retry of a job, doubling per consecutive failure (mirrors
	// faults.Policy); 0 means the default of 1.
	BackoffUnit float64
	// Deadline bounds the total virtual time in seconds the drain may
	// charge to retries and backoff across all jobs; once exceeded,
	// remaining affected jobs are evicted instead of migrated. 0 means no
	// bound.
	Deadline float64
}

func (o DrainOptions) backoffUnit() float64 {
	if o.BackoffUnit > 0 {
		return o.BackoffUnit
	}
	return 1
}

// DrainReport is the outcome of a drain: which contexts were cordoned and
// what happened to every affected job. Every affected job appears in
// exactly one of Migrated or Evicted — a drain never leaves a job on a
// drained context and never leaves one half-placed.
type DrainReport struct {
	// Drained lists the target contexts now cordoned, in dense order.
	Drained []topology.Context
	// Migrated and Evicted cover the affected jobs in processing
	// (job-ID) order.
	Migrated []Migration
	Evicted  []Eviction
	// Retries counts failed placement-validation attempts that were
	// retried; Cost is the virtual backoff time, in seconds, they were
	// charged.
	Retries int
	Cost    float64
	// DeadlineExceeded reports that the drain ran out of its virtual
	// deadline and evicted the jobs it had not yet migrated.
	DeadlineExceeded bool
}

// healthLocked returns a context's health; a context not on the machine
// reads Healthy. The caller must hold mu.
func (s *Scheduler) healthLocked(c topology.Context) Health {
	if !s.md.Topo.ValidContext(c) {
		return Healthy
	}
	return s.health[s.md.Topo.ContextIndex(c)]
}

// setHealthLocked transitions one on-machine context and keeps the
// unhealthy count and gauge current. The caller must hold mu.
func (s *Scheduler) setHealthLocked(c topology.Context, h Health) {
	i := s.md.Topo.ContextIndex(c)
	if s.health[i] != Healthy {
		s.unhealthy--
	}
	if h != Healthy {
		s.unhealthy++
	}
	s.health[i] = h
	metUnhealthy.Set(float64(s.unhealthy))
}

// Health returns one context's operational state.
func (s *Scheduler) Health(c topology.Context) Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthLocked(c)
}

// HealthCounts summarises context health across the machine.
func (s *Scheduler) HealthCounts() HealthCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	hc := HealthCounts{Healthy: len(s.health) - s.unhealthy}
	for _, h := range s.health {
		switch h {
		case Cordoned:
			hc.Cordoned++
		case Failed:
			hc.Failed++
		}
	}
	return hc
}

// validateContexts rejects contexts not on the machine.
func (s *Scheduler) validateContexts(ctxs []topology.Context) error {
	for _, c := range ctxs {
		if !s.md.Topo.ValidContext(c) {
			return fmt.Errorf("scheduler: context %v not on machine %s", c, s.md.Topo.Name)
		}
	}
	return nil
}

// Cordon marks the contexts as accepting no new placements. Jobs already
// running there are unaffected (use Drain to migrate them off). Already
// cordoned or failed contexts are left as they are; the number of contexts
// newly cordoned is returned.
func (s *Scheduler) Cordon(ctxs ...topology.Context) (int, error) {
	if err := s.validateContexts(ctxs); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sc opScope
	s.beginOpLocked(&sc, "cordon", "")
	defer sc.end()
	n := s.cordonLocked(ctxs)
	if sc.journaling {
		sc.rec.Outcome = "applied"
		sc.rec.Placement = placement.Placement(ctxs).String()
		sc.rec.Reason = fmt.Sprintf("%d newly cordoned", n)
		sc.record()
	}
	return n, nil
}

func (s *Scheduler) cordonLocked(ctxs []topology.Context) int {
	n := 0
	for _, c := range ctxs {
		if s.healthLocked(c) == Healthy {
			s.setHealthLocked(c, Cordoned)
			n++
		}
	}
	metCordons.Add(int64(n))
	return n
}

// CordonSocket cordons every context of one socket.
func (s *Scheduler) CordonSocket(sock int) (int, error) {
	ctxs, err := s.socketContexts(sock)
	if err != nil {
		return 0, err
	}
	return s.Cordon(ctxs...)
}

// Uncordon returns contexts to service, clearing a cordon or (after a
// repair) a failure. The number of contexts that changed state is returned.
func (s *Scheduler) Uncordon(ctxs ...topology.Context) (int, error) {
	if err := s.validateContexts(ctxs); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sc opScope
	s.beginOpLocked(&sc, "uncordon", "")
	defer sc.end()
	n := 0
	for _, c := range ctxs {
		if s.healthLocked(c) != Healthy {
			s.setHealthLocked(c, Healthy)
			n++
		}
	}
	metUncordons.Add(int64(n))
	if sc.journaling {
		sc.rec.Outcome = "applied"
		sc.rec.Placement = placement.Placement(ctxs).String()
		sc.rec.Reason = fmt.Sprintf("%d returned to service", n)
		sc.record()
	}
	return n, nil
}

// UncordonSocket returns every context of one socket to service.
func (s *Scheduler) UncordonSocket(sock int) (int, error) {
	ctxs, err := s.socketContexts(sock)
	if err != nil {
		return 0, err
	}
	return s.Uncordon(ctxs...)
}

// socketContexts lists one socket's contexts in dense order.
func (s *Scheduler) socketContexts(sock int) ([]topology.Context, error) {
	if sock < 0 || sock >= s.md.Topo.Sockets {
		return nil, fmt.Errorf("scheduler: socket %d not on machine %s (%d sockets)",
			sock, s.md.Topo.Name, s.md.Topo.Sockets)
	}
	var out []topology.Context
	for _, c := range s.ctxs {
		if c.Socket == sock {
			out = append(out, c)
		}
	}
	return out, nil
}

// Fail marks the contexts as failed and forcibly evicts every job with a
// thread on one of them. Unlike Drain there is no migration: a failed
// context's state is gone, so the jobs are removed and reported for the
// caller to resubmit.
func (s *Scheduler) Fail(ctxs ...topology.Context) (*EvictionReport, error) {
	if err := s.validateContexts(ctxs); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sc opScope
	s.beginOpLocked(&sc, "fail", "")
	defer sc.end()
	rep := &EvictionReport{}
	for _, c := range ctxs {
		if s.healthLocked(c) != Failed {
			s.setHealthLocked(c, Failed)
			rep.Failed = append(rep.Failed, c)
			metCtxFailures.Inc()
		}
	}
	sortContexts(rep.Failed)
	for _, id := range s.affectedLocked(ctxs) {
		rep.Evicted = append(rep.Evicted, s.evictLocked(&sc, id, "context failed"))
	}
	if sc.journaling {
		sc.rec.Outcome = "applied"
		sc.rec.Placement = placement.Placement(rep.Failed).String()
		sc.rec.Reason = fmt.Sprintf("%d contexts failed, %d jobs evicted", len(rep.Failed), len(rep.Evicted))
		sc.record()
		if ids := evictedIDs(rep.Evicted); len(ids) > 0 {
			sc.incident("eviction", strings.Join(ids, ","), "context failure evicted "+strings.Join(ids, ", "))
		}
	}
	return rep, nil
}

// evictedIDs lists the evicted jobs' IDs in report order.
func evictedIDs(evs []Eviction) []string {
	ids := make([]string, len(evs))
	for i, ev := range evs {
		ids[i] = ev.JobID
	}
	return ids
}

// FailSocket fails every context of one socket.
func (s *Scheduler) FailSocket(sock int) (*EvictionReport, error) {
	ctxs, err := s.socketContexts(sock)
	if err != nil {
		return nil, err
	}
	return s.Fail(ctxs...)
}

// affectedLocked returns, in sorted order, the IDs of running jobs with at
// least one thread on one of the on-machine contexts ctxs. The caller must
// hold mu.
func (s *Scheduler) affectedLocked(ctxs []topology.Context) []string {
	var ids []string
	for _, c := range ctxs {
		if a := s.owner[s.md.Topo.ContextIndex(c)]; a != nil && !slices.Contains(ids, a.Job.ID) {
			ids = append(ids, a.Job.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// evictLocked removes one job, records the eviction, and journals it as a
// child decision of the operation forcing it. The caller must hold mu and
// have verified the job is running.
func (s *Scheduler) evictLocked(sc *opScope, id, reason string) Eviction {
	a := s.running[id]
	ev := Eviction{
		JobID:     id,
		Placement: append(placement.Placement(nil), a.Placement...),
		Reason:    reason,
	}
	s.releaseLocked(a)
	metEvictions.Inc()
	sc.child(obs.DecisionRecord{
		Op: "evict", Job: id, Outcome: "evicted", Reason: "eviction",
		Cause: reason, Placement: ev.Placement.String(),
	})
	return ev
}

// Drain cordons the contexts and migrates every affected job off them with
// the scheduler's own candidate generators and joint predictor, retrying
// placements that fail Config.PlacementCheck under the options' bounded
// retry/backoff budget. Jobs that cannot be migrated — no feasible
// placement on the remaining healthy contexts, retry budget exhausted, or
// the drain's virtual deadline blown — are evicted, so the drained
// contexts are guaranteed free of threads when Drain returns.
func (s *Scheduler) Drain(ctxs []topology.Context, opt DrainOptions) (*DrainReport, error) {
	if err := s.validateContexts(ctxs); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	metDrains.Inc()
	var sc opScope
	s.beginOpLocked(&sc, "drain", "")
	defer sc.end()

	rep := &DrainReport{Drained: append([]topology.Context(nil), ctxs...)}
	s.cordonLocked(ctxs)
	sortContexts(rep.Drained)

	for _, id := range s.affectedLocked(ctxs) {
		if rep.DeadlineExceeded {
			rep.Evicted = append(rep.Evicted, s.evictLocked(&sc, id, "drain deadline exceeded"))
			continue
		}
		s.drainJobLocked(&sc, id, opt, rep)
	}
	if sc.journaling {
		sc.rec.Outcome = "applied"
		sc.rec.Placement = placement.Placement(rep.Drained).String()
		sc.rec.Reason = fmt.Sprintf("%d migrated, %d evicted", len(rep.Migrated), len(rep.Evicted))
		sc.record()
		if ids := evictedIDs(rep.Evicted); len(ids) > 0 {
			sc.incident("eviction", strings.Join(ids, ","), "drain evicted "+strings.Join(ids, ", "))
		}
	}
	return rep, nil
}

// DrainSocket drains every context of one socket.
func (s *Scheduler) DrainSocket(sock int, opt DrainOptions) (*DrainReport, error) {
	ctxs, err := s.socketContexts(sock)
	if err != nil {
		return nil, err
	}
	return s.Drain(ctxs, opt)
}

// drainJobLocked migrates or evicts one affected job, accumulating into
// rep. The caller must hold mu.
func (s *Scheduler) drainJobLocked(sc *opScope, id string, opt DrainOptions, rep *DrainReport) {
	a := s.running[id]
	cand, err := s.bestMigrationLocked(a, sc.id)
	if err != nil {
		rep.Evicted = append(rep.Evicted, s.evictLocked(sc, id, "scoring migration candidates: "+err.Error()))
		return
	}
	if cand == nil {
		rep.Evicted = append(rep.Evicted, s.evictLocked(sc, id, "no feasible placement off drained contexts"))
		return
	}
	attempts := 0
	for {
		attempts++
		if s.cfg.PlacementCheck != nil {
			err = s.cfg.PlacementCheck(cand)
		}
		if err == nil {
			from := append(placement.Placement(nil), a.Placement...)
			s.placeLocked(a, append(placement.Placement(nil), cand...))
			rep.Migrated = append(rep.Migrated, Migration{JobID: id, From: from, To: cand, Attempts: attempts})
			metMigrations.Inc()
			sc.child(obs.DecisionRecord{
				Op: "migrate", Job: id, Outcome: "migrated",
				Cause: "from " + from.String(), Placement: cand.String(),
			})
			return
		}
		if attempts > opt.MaxRetries {
			rep.Evicted = append(rep.Evicted, s.evictLocked(sc, id,
				fmt.Sprintf("placement validation retries exhausted (%d attempts): %v", attempts, err)))
			return
		}
		rep.Retries++
		metDrainRetries.Inc()
		rep.Cost += opt.backoffUnit() * math.Pow(2, float64(attempts-1))
		if opt.Deadline > 0 && rep.Cost > opt.Deadline {
			rep.DeadlineExceeded = true
			rep.Evicted = append(rep.Evicted, s.evictLocked(sc, id, "drain deadline exceeded"))
			return
		}
	}
}

// bestMigrationLocked picks the best re-placement for one running job over
// the free healthy contexts plus the job's own healthy, non-cordoned
// contexts, scored by joint predicted aggregate throughput with everything
// else fixed; ties keep the first. It returns a copy the caller owns; nil
// with a nil error means no feasible placement, and an error is the first
// scoring error. span is the requesting decision's id for trace
// attribution. The caller must hold mu.
func (s *Scheduler) bestMigrationLocked(a *Assignment, span int64) (placement.Placement, error) {
	jobs, digests := s.mixLocked()
	slot, _ := s.mixIndexLocked(a.Job.ID)
	results, err := s.searchLocked(jobs, digests, slot, a, s.candidatesLocked(a, len(a.Placement)), span)
	if err != nil || len(results) == 0 {
		return nil, err
	}
	best := 0
	for i := range results {
		if results[i].score > results[best].score {
			best = i
		}
	}
	return append(placement.Placement(nil), results[best].place...), nil
}

// CheckConsistency verifies the scheduler's structural invariants: the
// occupancy table and the running placements are a bijection, no two jobs
// share a context, no thread sits on a failed context, and the unhealthy
// count matches the health table. It also checks the state kept
// incrementally beside them: the per-socket counts against a recount of the
// occupancy table, the sorted mix against the running set, and every
// assignment's placed digest against one taken afresh. The scenario engine
// calls it after every event; a non-nil error is a scheduler bug.
func (s *Scheduler) CheckConsistency() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.mix) != len(s.running) {
		return fmt.Errorf("scheduler: sorted mix holds %d jobs, running set %d", len(s.mix), len(s.running))
	}
	want := 0
	for i, a := range s.mix {
		id := a.Job.ID
		if s.running[id] != a {
			return fmt.Errorf("scheduler: sorted mix holds job %q, which the running set does not", id)
		}
		if i > 0 && s.mix[i-1].Job.ID >= id {
			return fmt.Errorf("scheduler: sorted mix has %q before %q", s.mix[i-1].Job.ID, id)
		}
		if d := core.PlacedDigest(core.DigestWorkload(a.work), a.Placement); a.placed != d {
			return fmt.Errorf("scheduler: job %q has a stale placed digest", id)
		}
		seen := make(map[topology.Context]bool, len(a.Placement))
		for _, c := range a.Placement {
			if seen[c] {
				return fmt.Errorf("scheduler: job %q placed twice on context %v", id, c)
			}
			seen[c] = true
			if !s.md.Topo.ValidContext(c) {
				return fmt.Errorf("scheduler: job %q holds context %v, which is not on the machine", id, c)
			}
			if owner := s.owner[s.md.Topo.ContextIndex(c)]; owner != a {
				return fmt.Errorf("scheduler: job %q holds context %v but occupancy says %s", id, c, ownerName(owner))
			}
			if s.healthLocked(c) == Failed {
				return fmt.Errorf("scheduler: job %q still placed on failed context %v", id, c)
			}
		}
		want += len(a.Placement)
	}
	occupied, unhealthy := 0, 0
	busy := make([]int, len(s.busy))
	for i, owner := range s.owner {
		if owner != nil {
			occupied++
			busy[s.ctxs[i].Socket]++
		}
		if s.health[i] != Healthy {
			unhealthy++
		}
	}
	if occupied != want {
		return fmt.Errorf("scheduler: occupancy has %d contexts, running placements hold %d",
			occupied, want)
	}
	for sock, n := range busy {
		if s.busy[sock] != n {
			return fmt.Errorf("scheduler: socket %d has %d occupied contexts, count says %d", sock, n, s.busy[sock])
		}
	}
	if unhealthy != s.unhealthy {
		return fmt.Errorf("scheduler: health table has %d unhealthy contexts, count says %d",
			unhealthy, s.unhealthy)
	}
	return nil
}

// ownerName names an occupancy entry for an error message: the holding job's
// quoted ID, or "free".
func ownerName(a *Assignment) string {
	if a == nil {
		return "free"
	}
	return fmt.Sprintf("%q", a.Job.ID)
}
