package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// JobDelta records one running job's predicted execution time before and
// after a candidate move — the evidence behind the move's gain.
type JobDelta struct {
	JobID string
	// Before and After are the job's predicted times under the joint model
	// in the current state and with the move applied.
	//pandia:unit seconds
	Before float64
	//pandia:unit seconds
	After float64
}

// Move is one piece of rebalancing advice: re-placing a running job is
// predicted to improve the mix's aggregate speedup by Gain (a fraction,
// e.g. 0.07 = 7%). The scheduler never moves threads itself — migration
// costs are workload-specific — it only advises; ApplyMove commits a move
// the caller has decided to take.
type Move struct {
	JobID    string
	From, To placement.Placement
	Strategy string
	// Gain is the predicted relative improvement of aggregate speedup.
	Gain float64
	// Deltas holds every running job's predicted time before/after this
	// move (the moved job included), in job-ID order — why the move helps,
	// and who pays for it.
	Deltas []JobDelta
}

// RebalanceReport is the full outcome of one rebalancing evaluation: the
// jobs considered, their current predicted times, the aggregate score they
// were measured against, and the advised moves sorted by decreasing gain.
type RebalanceReport struct {
	// JobIDs lists the running jobs at evaluation time, sorted.
	JobIDs []string
	// BaseTimes[i] is JobIDs[i]'s predicted time in the current state.
	//pandia:unit seconds
	BaseTimes []float64
	// BaseScore is the current aggregate predicted throughput (the sum of
	// per-job speedups every candidate move is scored against).
	BaseScore float64
	// Moves is the advice, best first. Applying one invalidates the rest.
	Moves []Move
}

// Rebalance evaluates, for every running job, whether re-placing it over
// the currently free contexts (plus its own) would improve the predicted
// aggregate speedup of the whole mix by at least minGain. Moves are
// evaluated independently against the current state and returned sorted by
// decreasing gain, each carrying the per-job before/after predicted times
// it was justified by. minGain must be finite and non-negative. A scheduler
// with nothing running returns (nil, nil).
func (s *Scheduler) Rebalance(minGain float64) (*RebalanceReport, error) {
	if err := checkPolicyValue("minGain", minGain); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.running) == 0 {
		return nil, nil
	}
	metRebalanceRuns.Inc()
	sc := s.beginOpLocked("rebalance", "")
	defer sc.end()

	ids, jobs, digests := s.mixLocked()
	base, err := s.scoreMixLocked(jobs, digests, sc.id)
	if err != nil {
		sc.errored(err)
		return nil, err
	}
	baseScore := aggregateThroughput(base.CoScore)
	rep := &RebalanceReport{
		JobIDs:    slices.Clone(ids),
		BaseTimes: make([]float64, len(ids)),
		BaseScore: baseScore,
	}
	for i, sp := range base.Speedups {
		// T1 over speedup is how a full Prediction derives its Time.
		rep.BaseTimes[i] = jobs[i].Workload.T1 / sp //nanguard:ok the solver errors unless every speedup is > 0
	}

	for i, id := range ids {
		a := s.running[id]
		for _, cand := range s.candidatesLocked(s.availLocked(id), len(a.Placement)) {
			if samePlacement(cand.place, a.Placement) {
				continue
			}
			jobs[i].Placement = cand.place
			ms, err := s.scoreMixLocked(jobs, digests, sc.id)
			if err != nil {
				sc.errored(err)
				return nil, err
			}
			gain := aggregateThroughput(ms.CoScore)/baseScore - 1
			if gain >= minGain {
				deltas := make([]JobDelta, len(ids))
				for k := range ids {
					deltas[k] = JobDelta{
						JobID:  ids[k],
						Before: rep.BaseTimes[k],
						// T1 over speedup is how a full Prediction derives its Time.
						After: jobs[k].Workload.T1 / ms.Speedups[k], //nanguard:ok the solver errors unless every speedup is > 0
					}
				}
				rep.Moves = append(rep.Moves, Move{
					// cand.place is candidate scratch; the advice keeps a copy.
					JobID: id, From: a.Placement, To: append(placement.Placement(nil), cand.place...),
					Strategy: cand.strategy, Gain: gain, Deltas: deltas,
				})
			}
		}
		jobs[i].Placement = a.Placement // later jobs' moves are scored against the current state
	}
	sort.Slice(rep.Moves, func(a, b int) bool { return rep.Moves[a].Gain > rep.Moves[b].Gain })
	metRebalanceMoves.Add(int64(len(rep.Moves)))
	if sc.journaling {
		sc.rec.Outcome = "advised"
		sc.rec.Candidates = len(ids)
		sc.rec.Score = rep.BaseScore
		sc.rec.Reason = fmt.Sprintf("%d moves advised", len(rep.Moves))
		// The top advised moves ride in the alternatives slots: Score is the
		// predicted post-move aggregate, Slowdown the relative gain, Reject
		// names the moved job.
		for _, m := range rep.Moves {
			sc.rec.AddAlternative(obs.Alternative{
				Placement: m.To.String(), Strategy: m.Strategy,
				Score: rep.BaseScore * (1 + m.Gain), Slowdown: m.Gain,
				Reject: "job " + m.JobID,
			})
		}
		sc.record()
	}
	return rep, nil
}

// ApplyMove commits one advised move, re-pinning the job's threads. The
// scheduler's state may have changed between Rebalance and ApplyMove
// — another job admitted onto a target context, a cordon or failure, the
// job itself re-placed — so everything is re-validated at apply time; a
// stale move returns a *MoveConflictError and commits nothing.
func (s *Scheduler) ApplyMove(m Move) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := s.beginOpLocked("apply-move", m.JobID)
	defer sc.end()
	a, ok := s.running[m.JobID]
	if !ok {
		err := fmt.Errorf("scheduler: job %q not running", m.JobID)
		sc.rejected("conflict", err.Error())
		return err
	}
	conflict := func(cerr *MoveConflictError) error {
		sc.rejected("conflict", cerr.Reason)
		return cerr
	}
	if !samePlacement(a.Placement, m.From) {
		return conflict(&MoveConflictError{JobID: m.JobID,
			Reason: "job placement changed since the advice was computed"})
	}
	// The target must be a valid placement (on-machine, no context twice)
	// of the same thread count...
	if err := placement.Placement(m.To).Validate(s.md.Topo); err != nil {
		return conflict(&MoveConflictError{JobID: m.JobID, Reason: err.Error()})
	}
	if len(m.To) != len(a.Placement) {
		return conflict(&MoveConflictError{JobID: m.JobID, Reason: fmt.Sprintf(
			"move changes thread count (%d -> %d)", len(a.Placement), len(m.To))})
	}
	// ...using only contexts that are still healthy and still free (or the
	// job's own).
	for _, c := range m.To {
		if h := s.healthLocked(c); h != Healthy {
			return conflict(&MoveConflictError{JobID: m.JobID, Context: c, Health: h,
				Reason: fmt.Sprintf("target context %v is %s", c, h)})
		}
		if owner := s.owner[s.md.Topo.ContextIndex(c)]; owner != "" && owner != m.JobID {
			return conflict(&MoveConflictError{JobID: m.JobID, Context: c, Owner: owner,
				Reason: fmt.Sprintf("target context %v now belongs to %q", c, owner)})
		}
	}
	if s.cfg.PlacementCheck != nil {
		if cerr := s.cfg.PlacementCheck(placement.Placement(m.To)); cerr != nil {
			perr := &PlacementCheckError{JobID: m.JobID, Err: cerr}
			sc.rejected("placement-check", perr.Error())
			return perr
		}
	}
	s.setOwnerLocked(a.Placement, "")
	a.Placement = append(placement.Placement(nil), m.To...)
	s.setOwnerLocked(a.Placement, m.JobID)
	metRebalanceApplied.Inc()
	if sc.journaling {
		sc.rec.Outcome = "applied"
		sc.rec.Placement = a.Placement.String()
		sc.rec.Strategy = m.Strategy
		sc.rec.Cause = "from " + m.From.String()
		sc.rec.Score = m.Gain
		sc.record()
	}
	return nil
}

// samePlacement reports whether b holds exactly a's contexts, in any
// order. a must not repeat a context (every running placement is
// validated); then equal lengths plus every context of a in b make b a
// permutation of a.
func samePlacement(a, b placement.Placement) bool {
	if len(a) != len(b) {
		return false
	}
	for _, c := range a {
		if !slices.Contains(b, c) {
			return false
		}
	}
	return true
}

func sortContexts(p []topology.Context) {
	slices.SortFunc(p, func(x, y topology.Context) int {
		if c := cmp.Compare(x.Socket, y.Socket); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Core, y.Core); c != 0 {
			return c
		}
		return cmp.Compare(x.Slot, y.Slot)
	})
}
