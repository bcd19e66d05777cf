package scenario

import (
	"encoding/json"
	"sort"

	"pandia/internal/obs"
)

// Record is the incident record a replay emits: what happened, to whom, and
// what the machine looked like when the timeline ran dry. Its Encode output
// is byte-identical across replays of the same scenario — the property
// TestCorpusGolden and `make scenario-golden` enforce — so every field is either deterministic
// by construction or a delta over the replay (never an absolute of shared
// process state).
type Record struct {
	Scenario string `json:"scenario"`
	Machine  string `json:"machine"`
	Seed     int64  `json:"seed"`

	// Events is the executed timeline, one outcome per expanded event in
	// execution order (load-spikes and resubmissions appear as their own
	// entries).
	Events []EventOutcome `json:"events"`

	// Counts aggregates the whole replay.
	Counts Counts `json:"counts"`

	// Final is the machine state after the last event.
	Final Final `json:"final"`

	// MetricDeltas are the shared-registry counters this replay moved
	// (after minus before), sorted by name. Deltas, not absolutes: the
	// process-global registry accumulates across runs, the incident must
	// not.
	MetricDeltas []MetricDelta `json:"metricDeltas,omitempty"`

	// Journal is the scheduler's full decision journal for the replay, in
	// decision order: every admission, rejection, eviction, migration,
	// rebalance, and prediction with its candidate statistics and top-k
	// alternatives. Byte-deterministic like everything else here — the
	// journal runs on the replay's ManualClock and its own id sequence.
	Journal []obs.DecisionRecord `json:"journal,omitempty"`
	// Incidents are the journal's automatic dump-on-incident snapshots
	// (SLO rejections, evictions, degraded admissions) with their decision
	// windows and per-replay counter deltas.
	Incidents []obs.IncidentDump `json:"incidents,omitempty"`
}

// EventOutcome is one executed timeline entry.
type EventOutcome struct {
	// At is the event's virtual time in seconds.
	At float64 `json:"at"`
	// Seq orders simultaneous events (scenario order, with expansions
	// interleaved deterministically).
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// Target names what the event acted on (job ID, socket, context, ...).
	Target string `json:"target,omitempty"`
	// Status summarises the outcome: "admitted", "rejected", "migrated",
	// "evicted", "applied", "no-op", ...
	Status string `json:"status"`
	// Detail carries the human-readable specifics (placement chosen,
	// rejection reason, faults drawn, drain summary).
	Detail string `json:"detail,omitempty"`
}

// Counts aggregates the replay's outcomes.
type Counts struct {
	Submitted   int `json:"submitted"`
	Admitted    int `json:"admitted"`
	Degraded    int `json:"degraded"`
	Rejected    int `json:"rejected"`
	Removed     int `json:"removed"`
	Evicted     int `json:"evicted"`
	Migrated    int `json:"migrated"`
	Resubmitted int `json:"resubmitted"`
	// Lost is the scenario's headline robustness number: jobs that were
	// admitted at some point, are not running at the end, and were not
	// removed by an explicit remove event.
	Lost         int `json:"lost"`
	DrainRetries int `json:"drainRetries"`
}

// JobFinal is one running job in the final state.
type JobFinal struct {
	ID        string `json:"id"`
	Workload  string `json:"workload"`
	Threads   int    `json:"threads"`
	Placement string `json:"placement"`
	Strategy  string `json:"strategy"`
	Degraded  bool   `json:"degraded,omitempty"`
}

// Final is the machine state when the timeline ran dry.
type Final struct {
	// Time is the virtual time in seconds when the timeline ran dry.
	Time    float64    `json:"time"`
	Running []JobFinal `json:"running"`
	// Context health totals (from scheduler.HealthCounts).
	HealthyContexts  int `json:"healthyContexts"`
	CordonedContexts int `json:"cordonedContexts"`
	FailedContexts   int `json:"failedContexts"`
	FreeContexts     int `json:"freeContexts"`
	// WorstOversubscription / WorstSlowdown come from a final joint
	// prediction over the surviving mix (0 when nothing is running).
	WorstOversubscription float64 `json:"worstOversubscription"`
	WorstSlowdown         float64 `json:"worstSlowdown"`
}

// MetricDelta is one counter's movement across the replay.
type MetricDelta struct {
	Name  string `json:"name"`
	Delta int64  `json:"delta"`
}

// Encode renders the record as indented JSON with a trailing newline — the
// exact bytes `pandia replay` writes and the determinism gate diffs.
func (r *Record) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// counterDeltas diffs two registry snapshots into sorted non-zero deltas.
func counterDeltas(before, after *obs.Snapshot) []MetricDelta {
	prev := make(map[string]int64, len(before.Counters))
	for _, c := range before.Counters {
		prev[c.Name] = c.Value
	}
	var out []MetricDelta
	for _, c := range after.Counters {
		if d := c.Value - prev[c.Name]; d != 0 {
			out = append(out, MetricDelta{Name: c.Name, Delta: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
