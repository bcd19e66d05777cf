// Package scenario is the deterministic incident harness: whole production
// incidents — job churn, cordons, drains, socket failures, admission storms
// — declared as JSON scenario files and replayed byte-identically against a
// live scheduler on a manual clock (ROADMAP item 2's Navarch-style
// simulator).
//
// A scenario declares a machine preset, a timed event sequence, and
// assertions over the outcome. The engine executes the events off a
// binary-heap queue on an obs.ManualClock, injecting machine-level faults
// from internal/faults' seeded streams, and emits an incident Record whose
// JSON encoding is stable run-to-run: one `pandia replay` per bundled
// scenario must equal its committed golden byte for byte, a CI gate
// (`make scenario-golden`).
//
// Determinism contract: the engine owns every clock reading (ManualClock
// advanced to event timestamps), every random draw comes from fnv64a-seeded
// streams keyed by (seed, call index), the scheduler assembles all joint
// predictions in sorted job-ID order, and the record reports metric deltas
// (not absolute counters), so replays agree even inside a warm process.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"pandia/internal/topology"
)

// Scenario is one declared incident: a machine, a fault profile, a timed
// event sequence, and assertions over the replayed outcome.
type Scenario struct {
	// Name identifies the scenario in records and reports.
	Name string `json:"name"`
	// Machine is a simulated machine preset (see MachinePresets).
	Machine string `json:"machine"`
	// Seed drives every seeded fault stream in the replay.
	Seed int64 `json:"seed"`
	// Scheduler configures admission control and overload posture.
	Scheduler SchedulerConfig `json:"scheduler,omitempty"`
	// Faults configures the machine-level fault injector; the zero value
	// injects nothing.
	Faults FaultsConfig `json:"faults,omitempty"`
	// Events is the incident timeline, sorted by non-decreasing At.
	Events []Event `json:"events"`
	// Assert declares the properties the replay must satisfy; nil asserts
	// only the engine's built-in invariants.
	Assert *Assertions `json:"assert,omitempty"`
}

// SchedulerConfig mirrors the scheduler's admission knobs in scenario JSON.
type SchedulerConfig struct {
	AdmissionThreshold float64 `json:"admissionThreshold,omitempty"`
	SlowdownSLO        float64 `json:"slowdownSLO,omitempty"`
	AdmissionRate      float64 `json:"admissionRate,omitempty"`
	AdmissionBurst     float64 `json:"admissionBurst,omitempty"`
	AdmitDegraded      bool    `json:"admitDegraded,omitempty"`
}

// FaultsConfig mirrors faults.MachineConfig in scenario JSON.
type FaultsConfig struct {
	ContextFailure float64 `json:"contextFailure,omitempty"`
	SocketDegrade  float64 `json:"socketDegrade,omitempty"`
	DegradeFactor  float64 `json:"degradeFactor,omitempty"`
	PlacementFault float64 `json:"placementFault,omitempty"`
}

// Event is one timeline entry. Type selects the action; the other fields
// parameterise it (each type validates the fields it needs).
type Event struct {
	// At is the event's virtual timestamp in seconds.
	At float64 `json:"at"`
	// Type is one of: submit, remove, load-spike, cordon-socket,
	// uncordon-socket, cordon-context, uncordon-context, fail-socket,
	// fail-context, drain-socket, rebalance, inject.
	Type string `json:"type"`

	// Job names the job for submit/remove; the prefix for load-spike.
	Job string `json:"job,omitempty"`
	// Workload is a workload preset name (see WorkloadPresets) for
	// submit/load-spike.
	Workload string `json:"workload,omitempty"`
	// Threads is the requested thread count (0 lets the scheduler pick).
	Threads int `json:"threads,omitempty"`
	// Count is the number of arrivals a load-spike expands into; Spacing
	// separates consecutive arrivals in seconds (0 = simultaneous).
	Count   int     `json:"count,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`

	// Socket targets socket-scoped events.
	Socket *int `json:"socket,omitempty"`
	// Context targets context-scoped events.
	Context *ContextRef `json:"context,omitempty"`

	// Deadline (seconds) and Retries bound drain-socket
	// (scheduler.DrainOptions).
	Deadline float64 `json:"deadline,omitempty"`
	Retries  int     `json:"retries,omitempty"`

	// MinGain and Apply parameterise rebalance: advise moves of at least
	// MinGain and, with Apply, commit the best one.
	MinGain float64 `json:"minGain,omitempty"`
	Apply   bool    `json:"apply,omitempty"`

	// Resubmit re-enqueues jobs evicted by fail-socket/fail-context/inject
	// as fresh submissions ResubmitDelay seconds after the eviction.
	Resubmit      bool    `json:"resubmit,omitempty"`
	ResubmitDelay float64 `json:"resubmitDelay,omitempty"`

	// Draws is how many incident draws an inject event takes from the
	// machine-fault stream (default 1).
	Draws int `json:"draws,omitempty"`
}

// ContextRef addresses one hardware context in scenario JSON.
type ContextRef struct {
	Socket int `json:"socket"`
	Core   int `json:"core"`
	Slot   int `json:"slot"`
}

// Assertions are the declared pass conditions of a scenario, checked
// against the incident record after the timeline runs dry. Pointer fields
// distinguish "unset" from "zero" — `"maxLost": 0` really asserts zero
// lost jobs.
type Assertions struct {
	// JobsRunning must all be running when the scenario ends.
	JobsRunning []string `json:"jobsRunning,omitempty"`
	// FinalRunning pins the exact number of running jobs at the end.
	FinalRunning *int `json:"finalRunning,omitempty"`
	// MinAdmitted / MaxRejected bound admission outcomes.
	MinAdmitted *int `json:"minAdmitted,omitempty"`
	MaxRejected *int `json:"maxRejected,omitempty"`
	// MaxLost bounds jobs that were admitted, later evicted or displaced,
	// and never made it back by the end.
	MaxLost *int `json:"maxLost,omitempty"`
	// MaxEvicted bounds total evictions (including ones later resubmitted).
	MaxEvicted *int `json:"maxEvicted,omitempty"`
	// MaxWorstOversubscription / MaxWorstSlowdown bound the final joint
	// prediction over the surviving mix.
	MaxWorstOversubscription *float64 `json:"maxWorstOversubscription,omitempty"`
	MaxWorstSlowdown         *float64 `json:"maxWorstSlowdown,omitempty"`
	// MaxCounter bounds named metric deltas (e.g.
	// "scheduler.lifecycle.evictions") accumulated during the replay.
	MaxCounter map[string]int64 `json:"maxCounter,omitempty"`
}

// eventKinds maps each event type to the fields it requires.
var eventKinds = map[string]struct {
	needsJob      bool
	needsWorkload bool
	needsSocket   bool
	needsContext  bool
	needsCount    bool
}{
	"submit":           {needsJob: true, needsWorkload: true},
	"remove":           {needsJob: true},
	"load-spike":       {needsJob: true, needsWorkload: true, needsCount: true},
	"cordon-socket":    {needsSocket: true},
	"uncordon-socket":  {needsSocket: true},
	"cordon-context":   {needsContext: true},
	"uncordon-context": {needsContext: true},
	"fail-socket":      {needsSocket: true},
	"fail-context":     {needsContext: true},
	"drain-socket":     {needsSocket: true},
	"rebalance":        {},
	"inject":           {},
}

// EventTypes lists the recognised event types, sorted.
func EventTypes() []string {
	var out []string
	for k := range eventKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Parse decodes and validates a scenario. Unknown fields, unknown event
// types, unknown machine or workload presets, and out-of-order timestamps
// are all errors — a scenario that parses is ready to replay.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing garbage after the scenario object is an error, not ignored.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after scenario object")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Validate checks the scenario's internal consistency.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	topo, err := machineTopology(sc.Machine)
	if err != nil {
		return err
	}
	if err := (FaultsToMachineConfig(sc.Faults, sc.Seed)).Validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"admissionThreshold", sc.Scheduler.AdmissionThreshold},
		{"slowdownSLO", sc.Scheduler.SlowdownSLO},
		{"admissionRate", sc.Scheduler.AdmissionRate},
		{"admissionBurst", sc.Scheduler.AdmissionBurst},
	} {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) || f.val < 0 {
			return fmt.Errorf("scenario: non-finite or negative scheduler.%s %g", f.name, f.val)
		}
	}
	if len(sc.Events) == 0 {
		return fmt.Errorf("scenario: at least one event is required")
	}
	prev := math.Inf(-1)
	for i := range sc.Events {
		ev := &sc.Events[i]
		if err := sc.validateEvent(i, ev, topo); err != nil {
			return err
		}
		if ev.At < prev {
			return fmt.Errorf("scenario: event %d (%s) at t=%g is before its predecessor at t=%g; events must be sorted",
				i, ev.Type, ev.At, prev)
		}
		prev = ev.At
	}
	return nil
}

func (sc *Scenario) validateEvent(i int, ev *Event, topo topology.Machine) error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("scenario: event %d (%s): %s", i, ev.Type, fmt.Sprintf(format, args...))
	}
	if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
		return fail("non-finite or negative timestamp %g", ev.At)
	}
	kind, ok := eventKinds[ev.Type]
	if !ok {
		return fail("unknown event type (have %v)", EventTypes())
	}
	if kind.needsJob && ev.Job == "" {
		return fail("job name is required")
	}
	if kind.needsWorkload {
		if _, ok := workloadPreset(ev.Workload); !ok {
			return fail("unknown workload preset %q (have %v)", ev.Workload, WorkloadPresets())
		}
	}
	if kind.needsSocket {
		if ev.Socket == nil {
			return fail("socket is required")
		}
		if *ev.Socket < 0 || *ev.Socket >= topo.Sockets {
			return fail("socket %d not on machine %s (%d sockets)", *ev.Socket, topo.Name, topo.Sockets)
		}
	}
	if kind.needsContext {
		if ev.Context == nil {
			return fail("context is required")
		}
		c := topology.Context{Socket: ev.Context.Socket, Core: ev.Context.Core, Slot: ev.Context.Slot}
		if !topo.ValidContext(c) {
			return fail("context %v not on machine %s", c, topo.Name)
		}
	}
	if kind.needsCount && ev.Count < 1 {
		return fail("count %d below 1", ev.Count)
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"spacing", ev.Spacing},
		{"deadline", ev.Deadline},
		{"minGain", ev.MinGain},
		{"resubmitDelay", ev.ResubmitDelay},
	} {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) || f.val < 0 {
			return fail("non-finite or negative %s %g", f.name, f.val)
		}
	}
	if ev.Threads < 0 {
		return fail("negative thread count %d", ev.Threads)
	}
	if ev.Retries < 0 || ev.Draws < 0 {
		return fail("negative retry or draw budget")
	}
	return nil
}
