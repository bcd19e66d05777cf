package obs

import (
	"sync"
	"sync/atomic"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// EvPredictStart opens one solve: Job identifies the workload, Arg
	// carries its thread count.
	EvPredictStart EventKind = iota
	// EvIteration records one refinement round of the fixed-point loop:
	// Iter is the 1-based iteration, Residual the round's maximum
	// utilisation delta, Factor the worst per-thread slowdown, Res/ResIndex
	// the dominant (most oversubscribed) resource, and Loads the worst
	// load/capacity ratio seen for each resource kind.
	EvIteration
	// EvPredictEnd closes the solve: Iter is the total iteration count, Arg
	// is 1 if the iteration converged and 0 otherwise.
	EvPredictEnd
	// EvSpanBegin opens one hierarchical operation span: Span carries the
	// decision id linking the span to its journal record and to the solver
	// events the operation triggered, Arg a producer-defined phase code
	// (the scheduler's operation / candidate-sweep / cache-lookup phases).
	EvSpanBegin
	// EvSpanEnd closes the span opened with the same (Span, Arg).
	EvSpanEnd
)

// String names the kind for JSONL export and error messages.
func (k EventKind) String() string {
	switch k {
	case EvPredictStart:
		return "predict-start"
	case EvIteration:
		return "iteration"
	case EvPredictEnd:
		return "predict-end"
	case EvSpanBegin:
		return "span-begin"
	case EvSpanEnd:
		return "span-end"
	default:
		return "unknown"
	}
}

// MaxLoadKinds is the size of an Event's per-resource-kind load vector. It
// must be at least the number of resource kinds the producer distinguishes;
// the prediction core asserts at compile time that its kinds fit.
const MaxLoadKinds = 8

// Event is one solver trace record. It is a pure value — no pointers, no
// slices — so passing one through the Tracer interface never escapes to the
// heap, which is what lets a disabled tracer cost a single branch on the
// zero-allocation predictor path.
type Event struct {
	Kind EventKind
	// Job is the workload's index within the solve (0 for single-workload
	// predictions).
	Job int32
	// Iter is the iteration number (see the EventKind docs for per-kind
	// meaning).
	Iter int32
	// Arg is kind-specific: thread count on start, converged flag on end.
	Arg int32
	// Res and ResIndex identify the dominant resource of an iteration as a
	// producer-defined kind (topology.ResourceKind in the core) and
	// instance index.
	Res      int32
	ResIndex int32
	// Span is the decision id tying this event to the scheduler operation
	// that caused it (0 = no operation context). Span events carry the id
	// they open or close; solver events are stamped from the requesting
	// operation so one Perfetto timeline links scheduler ops to the solver
	// iterations they triggered.
	Span int64
	// Time is the event timestamp in seconds, stamped by the tracer's
	// clock.
	Time float64
	// Residual is the iteration's maximum utilisation-factor delta — the
	// quantity the convergence test compares against the tolerance.
	Residual float64
	// Factor is the worst per-thread overall slowdown this iteration.
	Factor float64
	// Loads[k] is the worst load/capacity ratio across instances of
	// resource kind k (0 when the kind is absent or unloaded).
	Loads [MaxLoadKinds]float64
}

// Tracer receives solver events. Implementations must make Enabled cheap —
// instrumentation sites call it on every iteration and skip all event
// assembly when it reports false — and must accept Emit calls from the
// goroutine running the solve.
type Tracer interface {
	Enabled() bool
	Emit(Event)
}

// RingTracer records events into a preallocated ring buffer, overwriting
// the oldest events once full, and stamps each event from an injected
// Clock. Safe for concurrent use; Enabled is a single atomic load.
type RingTracer struct {
	enabled atomic.Bool

	mu sync.Mutex
	// clock is set once at construction and only read afterwards.
	clock Clock
	//pandia:guardedby(mu)
	buf []Event
	//pandia:guardedby(mu)
	next int
	//pandia:guardedby(mu)
	total int64
	//pandia:guardedby(mu)
	overwritten int64
}

// NewRingTracer builds an enabled tracer holding up to capacity events
// (minimum 1). A nil clock leaves event timestamps as the producer set
// them.
func NewRingTracer(capacity int, clock Clock) *RingTracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &RingTracer{clock: clock, buf: make([]Event, capacity)}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether Emit currently records.
func (t *RingTracer) Enabled() bool { return t.enabled.Load() }

// SetEnabled flips recording on or off without dropping buffered events.
func (t *RingTracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Emit records one event, stamping its Time from the tracer's clock. A
// disabled tracer drops the event.
//
//pandia:noalloc
func (t *RingTracer) Emit(e Event) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock != nil {
		e.Time = t.clock.Now()
	}
	if int(t.total) >= len(t.buf) {
		t.overwritten++
	}
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.total++
}

// Events returns the buffered events oldest-first. The slice is a copy.
func (t *RingTracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.total)
	if n > len(t.buf) {
		n = len(t.buf)
	}
	out := make([]Event, 0, n)
	if int(t.total) > len(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
		return out
	}
	return append(out, t.buf[:n]...)
}

// Overwritten returns how many events the ring has discarded to make room.
func (t *RingTracer) Overwritten() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overwritten
}

// Reset discards all buffered events, keeping capacity, clock, and the
// enabled state.
func (t *RingTracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = 0
	t.total = 0
	t.overwritten = 0
}
