package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceLabels resolves producer-defined identifiers (job indices, resource
// kinds, load-vector slots) to human-readable names during export. Any
// field may be nil; numeric fallbacks are used. obs stays topology-agnostic
// — the prediction core passes resolvers built on topology.ResourceKind.
type TraceLabels struct {
	// Job names a job index (Chrome trace thread rows). Nil: "job N".
	Job func(job int32) string
	// Resource names a dominant resource (kind, instance index).
	// Nil: "res K/I".
	Resource func(res, index int32) string
	// Load names slot k of the Event.Loads vector; returning "" drops the
	// slot from the export. Nil: every slot as "loadK".
	Load func(slot int) string
	// Span names an operation span (decision id, producer-defined phase
	// code) for EvSpanBegin/EvSpanEnd rendering — e.g. "submit job-a:
	// candidate sweep". Nil: "span N" (phase 0) or "span N/P".
	Span func(span int64, phase int32) string
}

func (l TraceLabels) jobName(job int32) string {
	if l.Job != nil {
		return l.Job(job)
	}
	return fmt.Sprintf("job %d", job)
}

func (l TraceLabels) resourceName(res, index int32) string {
	if l.Resource != nil {
		return l.Resource(res, index)
	}
	return fmt.Sprintf("res %d/%d", res, index)
}

func (l TraceLabels) loadName(slot int) string {
	if l.Load != nil {
		return l.Load(slot)
	}
	return fmt.Sprintf("load%d", slot)
}

func (l TraceLabels) spanName(span int64, phase int32) string {
	if l.Span != nil {
		return l.Span(span, phase)
	}
	if phase == 0 {
		return fmt.Sprintf("span %d", span)
	}
	return fmt.Sprintf("span %d/%d", span, phase)
}

// chromeEvent is one trace_event record. Fields marshal in declaration
// order and json.Marshal sorts map keys, so the output is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders events in Chrome trace_event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. Each job becomes a thread
// row: solves appear as B/E duration slices, each iteration contributes a
// "solver loads" counter series (per-resource-kind utilisation plus the
// convergence residual) and an instant marking the dominant resource.
// Timestamps convert from the tracer clock's seconds to microseconds.
func WriteChromeTrace(w io.Writer, events []Event, labels TraceLabels) error {
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, 2*len(events))}
	for _, e := range events {
		ts := e.Time * 1e6
		// A nonzero Span links this event to the scheduler decision that
		// caused it; events outside an operation context (Span 0) render
		// exactly as they always did, which keeps the pinned goldens valid.
		withSpan := func(args map[string]any) map[string]any {
			if e.Span != 0 {
				args["decision"] = e.Span
			}
			return args
		}
		switch e.Kind {
		case EvPredictStart:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "solve " + labels.jobName(e.Job),
				Ph:   "B", Ts: ts, Pid: 0, Tid: e.Job,
				Args: withSpan(map[string]any{"threads": e.Arg}),
			})
		case EvIteration:
			counter := map[string]any{"residual": e.Residual, "slowdown": e.Factor}
			for k := 0; k < MaxLoadKinds; k++ {
				name := labels.loadName(k)
				if name == "" {
					continue
				}
				counter[name] = e.Loads[k]
			}
			trace.TraceEvents = append(trace.TraceEvents,
				chromeEvent{
					Name: "solver loads " + labels.jobName(e.Job),
					Ph:   "C", Ts: ts, Pid: 0, Tid: e.Job,
					Args: counter,
				},
				chromeEvent{
					Name: fmt.Sprintf("iter %d: %s", e.Iter, labels.resourceName(e.Res, e.ResIndex)),
					Ph:   "i", Ts: ts, Pid: 0, Tid: e.Job, S: "t",
					Args: withSpan(map[string]any{"iteration": e.Iter, "residual": e.Residual}),
				},
			)
		case EvPredictEnd:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "solve " + labels.jobName(e.Job),
				Ph:   "E", Ts: ts, Pid: 0, Tid: e.Job,
				Args: withSpan(map[string]any{"iterations": e.Iter, "converged": e.Arg != 0}),
			})
		case EvSpanBegin:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: labels.spanName(e.Span, e.Arg),
				Ph:   "B", Ts: ts, Pid: 0, Tid: e.Job,
				Args: withSpan(map[string]any{"phase": e.Arg}),
			})
		case EvSpanEnd:
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: labels.spanName(e.Span, e.Arg),
				Ph:   "E", Ts: ts, Pid: 0, Tid: e.Job,
				Args: withSpan(map[string]any{"phase": e.Arg}),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}

// jsonlEvent is the compact JSONL record for one event. Zero-valued
// kind-specific fields are omitted, so iteration lines carry the solver
// state and start/end lines stay one token wide.
type jsonlEvent struct {
	Kind     string             `json:"kind"`
	Time     float64            `json:"t"`
	Job      int32              `json:"job"`
	Span     int64              `json:"span,omitempty"`
	Name     string             `json:"name,omitempty"`
	Iter     int32              `json:"iter,omitempty"`
	Threads  int32              `json:"threads,omitempty"`
	Converge *bool              `json:"converged,omitempty"`
	Residual float64            `json:"residual,omitempty"`
	Factor   float64            `json:"slowdown,omitempty"`
	Dominant string             `json:"dominant,omitempty"`
	Loads    map[string]float64 `json:"loads,omitempty"`
}

// WriteJSONL streams events as one JSON object per line — the compact
// machine-readable form of the trace. Zero loads are dropped; map keys
// marshal sorted, so the stream is deterministic.
func WriteJSONL(w io.Writer, events []Event, labels TraceLabels) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		rec := jsonlEvent{Kind: e.Kind.String(), Time: e.Time, Job: e.Job, Span: e.Span}
		switch e.Kind {
		case EvPredictStart:
			rec.Threads = e.Arg
		case EvIteration:
			rec.Iter = e.Iter
			rec.Residual = e.Residual
			rec.Factor = e.Factor
			rec.Dominant = labels.resourceName(e.Res, e.ResIndex)
			for k := 0; k < MaxLoadKinds; k++ {
				name := labels.loadName(k)
				if name == "" || e.Loads[k] == 0 {
					continue
				}
				if rec.Loads == nil {
					rec.Loads = make(map[string]float64)
				}
				rec.Loads[name] = e.Loads[k]
			}
		case EvPredictEnd:
			rec.Iter = e.Iter
			conv := e.Arg != 0
			rec.Converge = &conv
		case EvSpanBegin, EvSpanEnd:
			rec.Name = labels.spanName(e.Span, e.Arg)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot renders a registry snapshot as indented JSON.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}
