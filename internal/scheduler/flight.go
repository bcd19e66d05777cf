package scheduler

// This file is the flight-recorder integration: every scheduler operation
// allocates a decision id, opens a trace span, and journals a typed
// DecisionRecord on the way out (DESIGN.md §13). The journal and tracer are
// both optional and independently disabled; a scheduler configured with
// neither pays a branch per operation and nothing else.

import (
	"fmt"

	"pandia/internal/core"
	"pandia/internal/machine"
	"pandia/internal/obs"
)

// spanRow is the Chrome-trace thread row scheduler operation spans render
// on: solver events use non-negative job indices, so -1 keeps the
// scheduling plane on its own timeline row.
const spanRow int32 = -1

// Span phase codes stamped into obs.Event.Arg by the scheduler's span
// events. Phases nest: the operation span wraps the candidate sweep, which
// wraps per-candidate cache lookups, which (on a miss) are followed by the
// solver's own EvPredict*/EvIteration events carrying the same decision id.
const (
	// SpanPhaseOp spans the whole operation (Submit, Rebalance, Drain, ...).
	SpanPhaseOp int32 = iota
	// SpanPhaseSweep spans Submit's candidate-placement sweep.
	SpanPhaseSweep
	// SpanPhaseCache spans one prediction-cache lookup.
	SpanPhaseCache
)

// SpanPhaseName names a span phase code for trace labels.
func SpanPhaseName(phase int32) string {
	switch phase {
	case SpanPhaseOp:
		return ""
	case SpanPhaseSweep:
		return "candidate sweep"
	case SpanPhaseCache:
		return "cache lookup"
	}
	return fmt.Sprintf("phase %d", phase)
}

// TraceLabels builds the label resolvers for a trace that mixes scheduler
// operation spans with solver events: core.TraceLabels' resource and load
// naming, plus span naming resolved from the journal's decision records
// ("submit job-a", "submit job-a: cache lookup"). jobName may be nil; a nil
// journal leaves spans numerically labelled.
func TraceLabels(md *machine.Description, j *obs.Journal, jobName func(job int32) string) obs.TraceLabels {
	labels := core.TraceLabels(md, jobName)
	names := make(map[int64]string)
	for _, rec := range j.Records() {
		name := rec.Op
		if rec.Job != "" {
			name += " " + rec.Job
		}
		names[rec.ID] = name
	}
	labels.Span = func(span int64, phase int32) string {
		name, ok := names[span]
		if !ok {
			name = fmt.Sprintf("decision %d", span)
		}
		if p := SpanPhaseName(phase); p != "" {
			name += ": " + p
		}
		return name
	}
	return labels
}

// opScope carries one operation's flight-recorder state: the decision id
// shared by the journal record and every span the operation emits, the
// record under construction, and the cache-traffic baseline its statistics
// diff against. The zero scope (journal and tracer both off) makes every
// method a no-op.
type opScope struct {
	s          *Scheduler
	id         int64
	journaling bool
	tracing    bool
	rec        obs.DecisionRecord
	// cache is the scheduler's prediction cache captured under mu at begin
	// time (CoCache is itself concurrency-safe, so record() may read its
	// statistics through this pointer without re-proving the lock).
	cache     *core.CoCache
	cacheBase core.CacheStats
}

// beginOpLocked opens one operation's scope in sc, which the caller owns
// and passes in as the zero scope: allocates the decision id, emits the
// operation span, and snapshots the cache statistics. The caller must hold
// mu (the cache baseline reads coCache) and must call end() when the
// operation finishes. With neither a journal nor a tracer configured this
// is a pair of branches, and the scope's record is never copied.
func (s *Scheduler) beginOpLocked(sc *opScope, op, job string) {
	sc.s = s
	sc.journaling = s.cfg.Journal.Enabled()
	tr := s.cfg.Tracer
	sc.tracing = tr != nil && tr.Enabled()
	if !sc.journaling && !sc.tracing {
		return
	}
	sc.id = s.cfg.Journal.NextID()
	if sc.journaling {
		sc.rec.ID, sc.rec.Op, sc.rec.Job = sc.id, op, job
		if s.coCache != nil {
			sc.cache = s.coCache
			sc.cacheBase = s.coCache.Stats()
		}
	}
	if sc.tracing {
		tr.Emit(obs.Event{Kind: obs.EvSpanBegin, Span: sc.id, Arg: SpanPhaseOp, Job: spanRow})
	}
}

// end closes the operation span. Call via defer, after any record().
func (sc *opScope) end() {
	if sc.tracing {
		sc.s.cfg.Tracer.Emit(obs.Event{Kind: obs.EvSpanEnd, Span: sc.id, Arg: SpanPhaseOp, Job: spanRow})
	}
}

// phase emits a nested span boundary (begin=true opens, false closes).
func (sc *opScope) phase(code int32, begin bool) {
	if !sc.tracing {
		return
	}
	kind := obs.EvSpanEnd
	if begin {
		kind = obs.EvSpanBegin
	}
	sc.s.cfg.Tracer.Emit(obs.Event{Kind: kind, Span: sc.id, Arg: code, Job: spanRow})
}

// record journals the scope's DecisionRecord, stamping the operation's
// prediction-cache traffic delta first.
func (sc *opScope) record() {
	if !sc.journaling {
		return
	}
	if sc.cache != nil {
		cs := sc.cache.Stats()
		sc.rec.CacheHits = cs.Hits - sc.cacheBase.Hits
		sc.rec.CacheMisses = cs.Misses - sc.cacheBase.Misses
	}
	sc.s.cfg.Journal.Record(sc.rec)
}

// rejected journals the operation as rejected with a typed reason (the
// AdmissionKind or check name) and the full cause text.
func (sc *opScope) rejected(reason, cause string) {
	if !sc.journaling {
		return
	}
	sc.rec.Outcome = "rejected"
	sc.rec.Reason = reason
	sc.rec.Cause = cause
	sc.record()
}

// errored journals an operation that failed outright (solver error rather
// than a policy decision).
func (sc *opScope) errored(err error) {
	if !sc.journaling {
		return
	}
	sc.rec.Outcome = "error"
	sc.rec.Reason = "internal"
	sc.rec.Cause = err.Error()
	sc.record()
}

// incident auto-snapshots the journal window, attributing the dump to this
// operation's decision.
func (sc *opScope) incident(trigger, job, detail string) {
	if !sc.journaling {
		return
	}
	sc.s.cfg.Journal.Incident(trigger, sc.id, job, detail)
}

// child journals a follow-on record caused by this operation (an eviction
// forced by a Fail, a migration forced by a Drain), parented to the
// operation's decision id.
func (sc *opScope) child(rec obs.DecisionRecord) {
	if !sc.journaling {
		return
	}
	rec.ID = sc.s.cfg.Journal.NextID()
	rec.Parent = sc.id
	sc.s.cfg.Journal.Record(rec)
}

// Journal returns the journal this scheduler records into (nil when none
// was configured) — the introspection mux serves it at /debug/decisions.
func (s *Scheduler) Journal() *obs.Journal { return s.cfg.Journal }
