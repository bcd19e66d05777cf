package scenario

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"

	"pandia/internal/faults"
	"pandia/internal/obs"
	"pandia/internal/scheduler"
	"pandia/internal/topology"
)

// Result is the outcome of one replay: the incident record plus any
// assertion failures. A scenario with failures still produces a complete,
// deterministic record — the record is the evidence.
type Result struct {
	Record *Record
	// Failures lists the declared assertions the replay violated, in
	// declaration order; empty means the scenario passed.
	Failures []string
}

// queuedEvent is one pending timeline entry. Expansions (load-spike
// arrivals, resubmissions of evicted jobs) enter the queue at runtime with
// later sequence numbers, so ties at one timestamp always resolve in a
// fixed order: declared events first, then expansions in creation order.
type queuedEvent struct {
	// at is the event's virtual time in seconds.
	at  float64
	seq int
	ev  Event
	// resubmit marks a submit expanded from an eviction, counted
	// separately in the record.
	resubmit bool
}

// eventQueue is a binary min-heap over (at, seq).
type eventQueue []queuedEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(queuedEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// jobSpec remembers how a job was submitted so evictions can resubmit it
// identically.
type jobSpec struct {
	workload string
	threads  int
}

// engine is one replay's mutable state.
type engine struct {
	sc    *Scenario
	s     *scheduler.Scheduler
	mi    *faults.MachineInjector
	clock *obs.ManualClock
	// now is the virtual time in seconds.
	now   float64
	queue eventQueue
	seq   int
	rec   *Record

	// jobs remembers every submitted job's spec for resubmission.
	jobs map[string]jobSpec
	// admitted marks jobs that ran at some point; removed marks jobs taken
	// off by an explicit remove event. Together they define Lost.
	admitted map[string]bool
	removed  map[string]bool
}

// Run replays one scenario from t=0 and returns its incident record and
// assertion outcome. Replays of the same scenario are byte-identical: the
// engine drives an obs.ManualClock, all randomness comes from the seeded
// machine-fault streams, and the scheduler state is checked for structural
// consistency after every event (a violation aborts the replay with an
// error — that is a scheduler bug, not a scenario failure).
func Run(sc *Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	md, err := machinePreset(sc.Machine)
	if err != nil {
		return nil, err
	}
	clock := obs.NewManualClock(0, 0)
	// Every replay gets its own journal on the replay clock: decision ids,
	// sequence numbers, and incident metric deltas all restart from the
	// journal's creation, so the journal section of the record is
	// byte-identical across replays despite the process-global registry.
	journal := obs.NewJournal(journalCapacity, clock)
	journal.SetEnabled(true)
	cfg := scheduler.Config{
		AdmissionThreshold: sc.Scheduler.AdmissionThreshold,
		SlowdownSLO:        sc.Scheduler.SlowdownSLO,
		AdmissionRate:      sc.Scheduler.AdmissionRate,
		AdmissionBurst:     sc.Scheduler.AdmissionBurst,
		AdmitDegraded:      sc.Scheduler.AdmitDegraded,
		Clock:              clock,
		Journal:            journal,
	}
	var mi *faults.MachineInjector
	if sc.Faults.enabled() {
		mi, err = faults.NewMachineInjector(md.Topo, FaultsToMachineConfig(sc.Faults, sc.Seed))
		if err != nil {
			return nil, err
		}
		cfg.PlacementCheck = mi.PlacementCheck
	}
	s, err := scheduler.New(md, cfg)
	if err != nil {
		return nil, err
	}

	e := &engine{
		sc: sc, s: s, mi: mi, clock: clock,
		rec:      &Record{Scenario: sc.Name, Machine: sc.Machine, Seed: sc.Seed},
		jobs:     make(map[string]jobSpec),
		admitted: make(map[string]bool),
		removed:  make(map[string]bool),
	}
	for _, ev := range sc.Events {
		e.enqueue(ev.At, ev, false)
	}

	before := obs.Default().Snapshot()
	for e.queue.Len() > 0 {
		qe := heap.Pop(&e.queue).(queuedEvent)
		if qe.at > e.now {
			clock.Advance(qe.at - e.now)
			e.now = qe.at
		}
		out := e.exec(qe)
		out.At = qe.at
		out.Seq = qe.seq
		out.Type = qe.ev.Type
		e.rec.Events = append(e.rec.Events, out)
		if cerr := s.CheckConsistency(); cerr != nil {
			return nil, fmt.Errorf("scenario %s: after event %d (%s): %w", sc.Name, qe.seq, qe.ev.Type, cerr)
		}
	}
	if err := e.finish(); err != nil {
		return nil, err
	}
	e.rec.MetricDeltas = counterDeltas(before, obs.Default().Snapshot())
	e.rec.Journal = journal.Records()
	e.rec.Incidents = journal.Incidents()
	return &Result{Record: e.rec, Failures: evalAssertions(sc.Assert, e.rec)}, nil
}

// journalCapacity bounds the per-replay decision journal. Large enough that
// no bundled scenario wraps; when one does, the record's journal section
// holds the most recent decisions (the ring semantics, not an error).
const journalCapacity = 1024

// enqueue adds one event with the next sequence number.
func (e *engine) enqueue(at float64, ev Event, resubmit bool) {
	heap.Push(&e.queue, queuedEvent{at: at, seq: e.seq, ev: ev, resubmit: resubmit})
	e.seq++
}

// exec dispatches one event. Validation guarantees the type is known.
func (e *engine) exec(qe queuedEvent) EventOutcome {
	ev := qe.ev
	switch ev.Type {
	case "submit":
		return e.execSubmit(qe)
	case "remove":
		return e.execRemove(ev)
	case "load-spike":
		for i := 0; i < ev.Count; i++ {
			e.enqueue(qe.at+float64(i)*ev.Spacing, Event{
				Type: "submit", Job: fmt.Sprintf("%s-%02d", ev.Job, i),
				Workload: ev.Workload, Threads: ev.Threads,
			}, false)
		}
		return EventOutcome{Target: ev.Job, Status: "expanded",
			Detail: fmt.Sprintf("%d %s arrivals, spacing %gs", ev.Count, ev.Workload, ev.Spacing)}
	case "cordon-socket":
		n, err := e.s.CordonSocket(*ev.Socket)
		return socketOutcome(*ev.Socket, "cordoned", n, err)
	case "uncordon-socket":
		n, err := e.s.UncordonSocket(*ev.Socket)
		return socketOutcome(*ev.Socket, "uncordoned", n, err)
	case "cordon-context":
		c := ev.Context.context()
		n, err := e.s.Cordon(c)
		return contextOutcome(c, "cordoned", n, err)
	case "uncordon-context":
		c := ev.Context.context()
		n, err := e.s.Uncordon(c)
		return contextOutcome(c, "uncordoned", n, err)
	case "fail-socket":
		rep, err := e.s.FailSocket(*ev.Socket)
		return e.evictionOutcome(fmt.Sprintf("socket %d", *ev.Socket), qe, rep, err)
	case "fail-context":
		c := ev.Context.context()
		rep, err := e.s.Fail(c)
		return e.evictionOutcome(fmt.Sprintf("%v", c), qe, rep, err)
	case "drain-socket":
		return e.execDrain(qe)
	case "rebalance":
		return e.execRebalance(ev)
	case "inject":
		return e.execInject(qe)
	}
	return EventOutcome{Status: "error", Detail: fmt.Sprintf("unknown event type %q", ev.Type)}
}

func (e *engine) execSubmit(qe queuedEvent) EventOutcome {
	ev := qe.ev
	w, _ := workloadPreset(ev.Workload)
	w.Name = ev.Job
	e.jobs[ev.Job] = jobSpec{workload: ev.Workload, threads: ev.Threads}
	e.rec.Counts.Submitted++
	if qe.resubmit {
		e.rec.Counts.Resubmitted++
	}
	a, err := e.s.Submit(scheduler.Job{ID: ev.Job, Workload: w, Threads: ev.Threads})
	if err != nil {
		e.rec.Counts.Rejected++
		return EventOutcome{Target: ev.Job, Status: "rejected", Detail: err.Error()}
	}
	e.admitted[ev.Job] = true
	delete(e.removed, ev.Job)
	status := "admitted"
	detail := fmt.Sprintf("%s %v", a.Strategy, a.Placement)
	e.rec.Counts.Admitted++
	if a.Degraded {
		e.rec.Counts.Degraded++
		status = "admitted-degraded"
		detail += "; " + strings.Join(a.DegradedReasons, "; ")
	}
	return EventOutcome{Target: ev.Job, Status: status, Detail: detail}
}

func (e *engine) execRemove(ev Event) EventOutcome {
	if err := e.s.Remove(ev.Job); err != nil {
		return EventOutcome{Target: ev.Job, Status: "no-op", Detail: err.Error()}
	}
	e.removed[ev.Job] = true
	e.rec.Counts.Removed++
	return EventOutcome{Target: ev.Job, Status: "removed"}
}

func (e *engine) execDrain(qe queuedEvent) EventOutcome {
	ev := qe.ev
	rep, err := e.s.DrainSocket(*ev.Socket, scheduler.DrainOptions{
		MaxRetries: ev.Retries,
		Deadline:   ev.Deadline,
	})
	if err != nil {
		return EventOutcome{Target: fmt.Sprintf("socket %d", *ev.Socket), Status: "error", Detail: err.Error()}
	}
	e.rec.Counts.Migrated += len(rep.Migrated)
	e.rec.Counts.DrainRetries += rep.Retries
	e.noteEvictions(qe, rep.Evicted)
	var parts []string
	parts = append(parts, fmt.Sprintf("drained %d contexts", len(rep.Drained)))
	for _, m := range rep.Migrated {
		parts = append(parts, fmt.Sprintf("migrated %s to %v (%d attempts)", m.JobID, m.To, m.Attempts))
	}
	for _, v := range rep.Evicted {
		parts = append(parts, fmt.Sprintf("evicted %s (%s)", v.JobID, v.Reason))
	}
	if rep.Retries > 0 {
		parts = append(parts, fmt.Sprintf("%d retries, backoff cost %gs", rep.Retries, rep.Cost))
	}
	status := "drained"
	if rep.DeadlineExceeded {
		status = "drain-deadline-exceeded"
	}
	return EventOutcome{Target: fmt.Sprintf("socket %d", *ev.Socket), Status: status,
		Detail: strings.Join(parts, "; ")}
}

func (e *engine) execRebalance(ev Event) EventOutcome {
	rep, err := e.s.Rebalance(ev.MinGain)
	if err != nil {
		return EventOutcome{Status: "error", Detail: err.Error()}
	}
	if rep == nil || len(rep.Moves) == 0 {
		return EventOutcome{Status: "no-op", Detail: "no moves advised"}
	}
	m := rep.Moves[0]
	detail := fmt.Sprintf("%d moves advised; best: %s %s to %v (gain %.4f)",
		len(rep.Moves), m.JobID, m.Strategy, m.To, m.Gain)
	if !ev.Apply {
		return EventOutcome{Status: "advised", Detail: detail}
	}
	if aerr := e.s.ApplyMove(m); aerr != nil {
		return EventOutcome{Target: m.JobID, Status: "conflict", Detail: detail + "; " + aerr.Error()}
	}
	e.rec.Counts.Migrated++
	return EventOutcome{Target: m.JobID, Status: "applied", Detail: detail}
}

func (e *engine) execInject(qe queuedEvent) EventOutcome {
	ev := qe.ev
	if e.mi == nil {
		return EventOutcome{Status: "no-op", Detail: "no fault classes configured"}
	}
	draws := ev.Draws
	if draws < 1 {
		draws = 1
	}
	var parts []string
	for i := 0; i < draws; i++ {
		for _, f := range e.mi.Draw() {
			parts = append(parts, f.String())
			switch f.Kind {
			case faults.FaultContextFailure:
				rep, err := e.s.Fail(f.Context)
				if err != nil {
					parts = append(parts, "error: "+err.Error())
					continue
				}
				e.noteEvictions(qe, rep.Evicted)
				for _, v := range rep.Evicted {
					parts = append(parts, fmt.Sprintf("evicted %s", v.JobID))
				}
			case faults.FaultSocketDegrade:
				n, err := e.degradeSocket(f.Socket, f.Severity)
				if err != nil {
					parts = append(parts, "error: "+err.Error())
					continue
				}
				parts = append(parts, fmt.Sprintf("cordoned %d contexts of socket %d", n, f.Socket))
			}
		}
	}
	if len(parts) == 0 {
		return EventOutcome{Status: "quiet", Detail: fmt.Sprintf("%d draws, no faults", draws)}
	}
	return EventOutcome{Status: "injected", Detail: strings.Join(parts, "; ")}
}

// degradeSocket models a socket losing capacity: the highest-numbered
// ceil((1-severity)·contexts) contexts of the socket are cordoned, shrinking
// what the scheduler may place there without touching running threads.
func (e *engine) degradeSocket(sock int, severity float64) (int, error) {
	var ctxs []topology.Context
	for _, c := range e.s.Machine().Contexts() {
		if c.Socket == sock {
			ctxs = append(ctxs, c)
		}
	}
	k := int(math.Ceil((1 - severity) * float64(len(ctxs))))
	if k <= 0 {
		return 0, nil
	}
	if k > len(ctxs) {
		k = len(ctxs)
	}
	return e.s.Cordon(ctxs[len(ctxs)-k:]...)
}

// noteEvictions counts evictions and, when the provoking event asked for
// it, re-enqueues each evicted job as a fresh submission.
func (e *engine) noteEvictions(qe queuedEvent, evs []scheduler.Eviction) {
	e.rec.Counts.Evicted += len(evs)
	if !qe.ev.Resubmit {
		return
	}
	for _, v := range evs {
		spec, ok := e.jobs[v.JobID]
		if !ok {
			continue
		}
		e.enqueue(qe.at+qe.ev.ResubmitDelay, Event{
			Type: "submit", Job: v.JobID, Workload: spec.workload, Threads: spec.threads,
		}, true)
	}
}

// evictionOutcome renders a Fail/FailSocket result.
func (e *engine) evictionOutcome(target string, qe queuedEvent, rep *scheduler.EvictionReport, err error) EventOutcome {
	if err != nil {
		return EventOutcome{Target: target, Status: "error", Detail: err.Error()}
	}
	e.noteEvictions(qe, rep.Evicted)
	var ids []string
	for _, v := range rep.Evicted {
		ids = append(ids, v.JobID)
	}
	detail := fmt.Sprintf("failed %d contexts", len(rep.Failed))
	if len(ids) > 0 {
		detail += fmt.Sprintf(", evicted [%s]", strings.Join(ids, " "))
	}
	return EventOutcome{Target: target, Status: "failed", Detail: detail}
}

func socketOutcome(sock int, verb string, n int, err error) EventOutcome {
	target := fmt.Sprintf("socket %d", sock)
	if err != nil {
		return EventOutcome{Target: target, Status: "error", Detail: err.Error()}
	}
	return EventOutcome{Target: target, Status: verb, Detail: fmt.Sprintf("%d contexts changed", n)}
}

func contextOutcome(c topology.Context, verb string, n int, err error) EventOutcome {
	target := fmt.Sprintf("%v", c)
	if err != nil {
		return EventOutcome{Target: target, Status: "error", Detail: err.Error()}
	}
	return EventOutcome{Target: target, Status: verb, Detail: fmt.Sprintf("%d contexts changed", n)}
}

func (r *ContextRef) context() topology.Context {
	return topology.Context{Socket: r.Socket, Core: r.Core, Slot: r.Slot}
}

// finish captures the final machine state, computes Lost, and runs a last
// joint prediction over the survivors.
func (e *engine) finish() error {
	e.rec.Final.Time = e.now
	hc := e.s.HealthCounts()
	e.rec.Final.HealthyContexts = hc.Healthy
	e.rec.Final.CordonedContexts = hc.Cordoned
	e.rec.Final.FailedContexts = hc.Failed
	e.rec.Final.FreeContexts = len(e.s.FreeContexts())

	runningSet := make(map[string]bool)
	for _, a := range e.s.Assignments() {
		runningSet[a.Job.ID] = true
		e.rec.Final.Running = append(e.rec.Final.Running, JobFinal{
			ID:        a.Job.ID,
			Workload:  e.jobs[a.Job.ID].workload,
			Threads:   len(a.Placement),
			Placement: fmt.Sprintf("%v", a.Placement),
			Strategy:  a.Strategy,
			Degraded:  a.Degraded,
		})
	}

	var lostIDs []string
	for id := range e.admitted {
		if !runningSet[id] && !e.removed[id] {
			lostIDs = append(lostIDs, id)
		}
	}
	sort.Strings(lostIDs)
	e.rec.Counts.Lost = len(lostIDs)

	if len(runningSet) > 0 {
		co, err := e.s.Predict()
		if err != nil {
			return fmt.Errorf("scenario %s: final prediction: %w", e.sc.Name, err)
		}
		e.rec.Final.WorstOversubscription = co.WorstOversubscription
		worst := 0.0
		for _, p := range co.Predictions {
			if p.Speedup <= 0 {
				worst = math.Inf(1)
				break
			}
			if sl := p.AmdahlSpeedup / p.Speedup; sl > worst {
				worst = sl
			}
		}
		e.rec.Final.WorstSlowdown = worst
	}
	return nil
}

// evalAssertions checks the declared assertions against the record.
func evalAssertions(a *Assertions, rec *Record) []string {
	if a == nil {
		return nil
	}
	var fails []string
	failf := func(format string, args ...interface{}) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	running := make(map[string]bool, len(rec.Final.Running))
	for _, j := range rec.Final.Running {
		running[j.ID] = true
	}
	for _, id := range a.JobsRunning {
		if !running[id] {
			failf("job %q not running at end", id)
		}
	}
	if a.FinalRunning != nil && len(rec.Final.Running) != *a.FinalRunning {
		failf("final running jobs %d != %d", len(rec.Final.Running), *a.FinalRunning)
	}
	if a.MinAdmitted != nil && rec.Counts.Admitted < *a.MinAdmitted {
		failf("admitted %d < min %d", rec.Counts.Admitted, *a.MinAdmitted)
	}
	if a.MaxRejected != nil && rec.Counts.Rejected > *a.MaxRejected {
		failf("rejected %d > max %d", rec.Counts.Rejected, *a.MaxRejected)
	}
	if a.MaxLost != nil && rec.Counts.Lost > *a.MaxLost {
		failf("lost %d > max %d", rec.Counts.Lost, *a.MaxLost)
	}
	if a.MaxEvicted != nil && rec.Counts.Evicted > *a.MaxEvicted {
		failf("evicted %d > max %d", rec.Counts.Evicted, *a.MaxEvicted)
	}
	if a.MaxWorstOversubscription != nil && rec.Final.WorstOversubscription > *a.MaxWorstOversubscription {
		failf("worst oversubscription %.4f > max %.4f", rec.Final.WorstOversubscription, *a.MaxWorstOversubscription)
	}
	if a.MaxWorstSlowdown != nil && rec.Final.WorstSlowdown > *a.MaxWorstSlowdown {
		failf("worst slowdown %.4f > max %.4f", rec.Final.WorstSlowdown, *a.MaxWorstSlowdown)
	}
	if len(a.MaxCounter) > 0 {
		deltas := make(map[string]int64, len(rec.MetricDeltas))
		for _, d := range rec.MetricDeltas {
			deltas[d.Name] = d.Delta
		}
		names := make([]string, 0, len(a.MaxCounter))
		for name := range a.MaxCounter {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got := deltas[name]; got > a.MaxCounter[name] {
				failf("counter %s delta %d > max %d", name, got, a.MaxCounter[name])
			}
		}
	}
	return fails
}
