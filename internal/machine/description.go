// Package machine builds and represents Pandia's machine descriptions (§3
// of the paper): the topology of the machine plus empirically measured
// capacities of every class of contended resource. Descriptions are
// workload-independent and created once per machine, from the outputs of
// stress applications measured with (virtual) performance counters — never
// from data sheets.
package machine

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"pandia/internal/counters"
	"pandia/internal/topology"
)

// Description is Pandia's model of one machine. All bandwidths are in the
// same units as the workload demand vectors measured on the same machine;
// the paper's convention (§3) is that only consistency matters, not scale.
type Description struct {
	Topo topology.Machine `json:"topology"`

	// CorePeakInstr is the measured peak instruction rate of one core
	// running a single hardware thread (§3.2).
	CorePeakInstr float64 `json:"corePeakInstr"`
	// SMTFactor is the measured aggregate instruction throughput of a core
	// running two hardware threads relative to one (§3.2).
	SMTFactor float64 `json:"smtFactor"`

	// Per-core link bandwidths (§3.1).
	L1BW     float64 `json:"l1BW"`
	L2BW     float64 `json:"l2BW"`
	L3LinkBW float64 `json:"l3LinkBW"`
	// Per-socket capacities (§3.1: "360 per core, and 5000 in aggregate").
	L3AggBW float64 `json:"l3AggBW"`
	DRAMBW  float64 `json:"dramBW"`
	// Per socket-pair interconnect link bandwidth.
	InterconnectBW float64 `json:"interconnectBW"`
}

// Validate reports whether the description is usable for prediction. NaN
// and ±Inf capacities are rejected explicitly: NaN passes every range
// comparison, so a corrupted stress measurement would otherwise reach the
// predictor as a capacity.
func (d *Description) Validate() error {
	if err := d.Topo.Validate(); err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		val  float64
	}{
		{"core peak", d.CorePeakInstr},
		{"SMT factor", d.SMTFactor},
		{"L1 bandwidth", d.L1BW},
		{"L2 bandwidth", d.L2BW},
		{"L3 link bandwidth", d.L3LinkBW},
		{"L3 aggregate bandwidth", d.L3AggBW},
		{"DRAM bandwidth", d.DRAMBW},
		{"interconnect bandwidth", d.InterconnectBW},
	} {
		if math.IsNaN(c.val) || math.IsInf(c.val, 0) {
			return fmt.Errorf("machine: %s: non-finite %s %g", d.Topo.Name, c.name, c.val)
		}
	}
	if d.CorePeakInstr <= 0 {
		return fmt.Errorf("machine: %s: non-positive core peak", d.Topo.Name)
	}
	if d.SMTFactor < 1 {
		return fmt.Errorf("machine: %s: SMT factor %g below 1", d.Topo.Name, d.SMTFactor)
	}
	if d.DRAMBW <= 0 {
		return fmt.Errorf("machine: %s: non-positive DRAM bandwidth", d.Topo.Name)
	}
	if d.Topo.Sockets > 1 && d.InterconnectBW <= 0 {
		return fmt.Errorf("machine: %s: missing interconnect bandwidth", d.Topo.Name)
	}
	for _, b := range []float64{d.L1BW, d.L2BW, d.L3LinkBW, d.L3AggBW, d.InterconnectBW} {
		if b < 0 {
			return fmt.Errorf("machine: %s: negative bandwidth", d.Topo.Name)
		}
	}
	return nil
}

// Repair substitutes capacities the stress measurements failed to establish
// (missing, negative, or non-finite) so degraded-mode prediction can
// proceed, returning one reason string per change. Required capacities take
// the conservative pessimistic cap: the workload's own per-thread demand for
// the resource, so every co-scheduled thread fully serialises behind it and
// the prediction overestimates contention instead of missing it. When the
// workload does not touch the resource either, the capacity becomes 1 — any
// positive value works, since zero demand draws zero load. Optional cache
// capacities take the same demand cap. An invalid topology is unrepairable
// and left for Validate to reject.
func (d *Description) Repair(demand counters.Rates) []string {
	var reasons []string
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	capAt := func(dm float64) float64 {
		if dm > 0 {
			return dm
		}
		return 1
	}
	if bad(d.CorePeakInstr) || d.CorePeakInstr <= 0 {
		d.CorePeakInstr = capAt(demand.Instr)
		reasons = append(reasons, fmt.Sprintf("machine %s: core peak unusable; pessimistic cap at per-thread demand %g", d.Topo.Name, d.CorePeakInstr))
	}
	if bad(d.SMTFactor) || d.SMTFactor < 1 {
		d.SMTFactor = 1
		reasons = append(reasons, fmt.Sprintf("machine %s: SMT factor unusable; assuming no SMT gain (1)", d.Topo.Name))
	}
	if bad(d.DRAMBW) || d.DRAMBW <= 0 {
		d.DRAMBW = capAt(demand.DRAM)
		reasons = append(reasons, fmt.Sprintf("machine %s: DRAM bandwidth unusable; pessimistic cap at per-thread demand %g", d.Topo.Name, d.DRAMBW))
	}
	if d.Topo.Sockets > 1 && (bad(d.InterconnectBW) || d.InterconnectBW <= 0) {
		d.InterconnectBW = capAt(demand.DRAM)
		reasons = append(reasons, fmt.Sprintf("machine %s: interconnect bandwidth unusable; pessimistic cap at per-thread DRAM demand %g", d.Topo.Name, d.InterconnectBW))
	}
	for _, c := range []struct {
		name string
		val  *float64
		dm   float64
	}{
		{"L1 bandwidth", &d.L1BW, demand.L1},
		{"L2 bandwidth", &d.L2BW, demand.L2},
		{"L3 link bandwidth", &d.L3LinkBW, demand.L3},
		{"L3 aggregate bandwidth", &d.L3AggBW, demand.L3},
		{"interconnect bandwidth", &d.InterconnectBW, demand.DRAM},
	} {
		if bad(*c.val) || *c.val < 0 {
			*c.val = c.dm // zero demand -> 0: the resource stays unconstrained
			reasons = append(reasons, fmt.Sprintf("machine %s: %s unusable; pessimistic cap at per-thread demand %g", d.Topo.Name, c.name, *c.val))
		}
	}
	return reasons
}

// InstrCapacity returns the instruction-issue capacity of one core hosting
// the given number of active threads.
func (d *Description) InstrCapacity(threadsOnCore int) float64 {
	if threadsOnCore > 1 {
		return d.CorePeakInstr * d.SMTFactor
	}
	return d.CorePeakInstr
}

// Capacity returns the capacity of one instance of the resource kind for
// single-thread core occupancy; 0 means the machine does not constrain that
// kind (e.g. no caches on the toy machine).
func (d *Description) Capacity(k topology.ResourceKind) float64 {
	switch k {
	case topology.ResInstr:
		return d.CorePeakInstr
	case topology.ResL1:
		return d.L1BW
	case topology.ResL2:
		return d.L2BW
	case topology.ResL3Link:
		return d.L3LinkBW
	case topology.ResL3Agg:
		return d.L3AggBW
	case topology.ResDRAM:
		return d.DRAMBW
	case topology.ResInterconnect:
		return d.InterconnectBW
	default:
		return 0
	}
}

// MarshalJSON/UnmarshalJSON use the default struct encoding; Save and Load
// add file round-tripping for the CLI.

// Save writes the description to a JSON file.
func (d *Description) Save(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("machine: encoding description: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("machine: writing %s: %w", path, err)
	}
	return nil
}

// Load reads a description from a JSON file and validates it.
func Load(path string) (*Description, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("machine: reading %s: %w", path, err)
	}
	var d Description
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("machine: decoding %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// String summarises the description.
func (d *Description) String() string {
	return fmt.Sprintf("%s: core=%.1f smt=%.2f l1=%.0f l2=%.0f l3=%.0f/%.0f dram=%.0f ic=%.0f",
		d.Topo.Name, d.CorePeakInstr, d.SMTFactor, d.L1BW, d.L2BW, d.L3LinkBW, d.L3AggBW,
		d.DRAMBW, d.InterconnectBW)
}
