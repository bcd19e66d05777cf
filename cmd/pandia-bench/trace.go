package main

import (
	"fmt"
	"sort"
	"time"

	"pandia/internal/obs"
	"pandia/internal/scheduler"
)

// interval is one closed span of wall time, in seconds since the tracer's
// epoch.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other or stick out of the span; only the union
// of their intersections with the span is subtracted.
func selfTime(span interval, kids []interval) float64 {
	clipped := make([]interval, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, span.start), min(k.end, span.end)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, reach := 0.0, span.start
	for _, k := range clipped {
		if k.end <= reach {
			continue
		}
		covered += k.end - max(k.start, reach)
		reach = k.end
	}
	return (span.end - span.start) - covered
}

// phaseSolve marks a joint solve on the span stack. The scheduler's own
// phase codes are non-negative.
const phaseSolve int32 = -1

type openSpan struct {
	phase int32
	start float64
	kids  []interval
}

// spanTotals is what the tracer accumulated while enabled, in seconds: the
// self time of operation and candidate-sweep spans, the time in cache
// lookups and joint solves, and the joint solver's work counts.
type spanTotals struct {
	opSelf, sweepSelf  float64
	cacheTime          float64
	solveTime          float64
	solves, iterations int64
}

func (s *spanTotals) add(o spanTotals) {
	s.opSelf += o.opSelf
	s.sweepSelf += o.sweepSelf
	s.cacheTime += o.cacheTime
	s.solveTime += o.solveTime
	s.solves += o.solves
	s.iterations += o.iterations
}

// spanTracer is the benchmark's obs.Tracer for the scheduler. It stamps
// events from its own wall clock and folds the scheduler's operation,
// candidate-sweep and cache-lookup spans, and the solver's predict-start/end
// markers, into spanTotals as they arrive, so a long traced run keeps no
// event buffer. The scheduler emits from the goroutine calling it, which in
// this benchmark is always the single client goroutine.
type spanTracer struct {
	on bool
	// clock reads seconds since the tracer's epoch.
	clock func() float64
	stack []openSpan
	tot   spanTotals
	err   error
}

func newSpanTracer() *spanTracer {
	epoch := time.Now()
	return &spanTracer{clock: func() float64 { return time.Since(epoch).Seconds() }}
}

func (t *spanTracer) Enabled() bool { return t != nil && t.on }

func (t *spanTracer) Emit(e obs.Event) {
	switch e.Kind {
	case obs.EvSpanBegin:
		t.stack = append(t.stack, openSpan{phase: e.Arg, start: t.clock()})
	case obs.EvSpanEnd:
		t.close(e.Arg, t.clock(), 0)
	case obs.EvPredictStart:
		// A joint solve emits one start per job, all at once; job 0 is
		// always present.
		if e.Job == 0 {
			t.stack = append(t.stack, openSpan{phase: phaseSolve, start: t.clock()})
		}
	case obs.EvPredictEnd:
		if e.Job == 0 {
			t.close(phaseSolve, t.clock(), int64(e.Iter))
		}
	}
}

// close pops the innermost open span, which must be of the given phase, and
// credits it to its parent as a child interval.
func (t *spanTracer) close(phase int32, now float64, iters int64) {
	n := len(t.stack)
	if n == 0 || t.stack[n-1].phase != phase {
		if t.err == nil {
			t.err = fmt.Errorf("trace: span end for phase %d does not match the open span", phase)
		}
		return
	}
	top := t.stack[n-1]
	t.stack = t.stack[:n-1]
	iv := interval{top.start, now}
	switch phase {
	case scheduler.SpanPhaseOp:
		t.tot.opSelf += selfTime(iv, top.kids)
	case scheduler.SpanPhaseSweep:
		t.tot.sweepSelf += selfTime(iv, top.kids)
	case scheduler.SpanPhaseCache:
		t.tot.cacheTime += now - top.start
	case phaseSolve:
		t.tot.solveTime += now - top.start
		t.tot.solves++
		t.tot.iterations += iters
	}
	if n > 1 {
		t.stack[n-2].kids = append(t.stack[n-2].kids, iv)
	}
}

// take returns and clears the accumulated totals and any nesting error.
// Call it between operations, when no span is open.
func (t *spanTracer) take() (spanTotals, error) {
	tot, err := t.tot, t.err
	if err == nil && len(t.stack) != 0 {
		err = fmt.Errorf("trace: %d spans still open between operations", len(t.stack))
	}
	t.tot, t.err, t.stack = spanTotals{}, nil, t.stack[:0]
	return tot, err
}
