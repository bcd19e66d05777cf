// Package simhw is the simulated hardware testbed that stands in for the
// paper's Intel Xeon machines. It executes a run — a workload placed on
// hardware thread contexts, optionally perturbed by stress applications —
// and reports a wall-clock time and virtual performance counters.
//
// The testbed's ground truth is deliberately richer than Pandia's model:
// it includes Turbo Boost frequency scaling, SMT issue-width sharing,
// queueing non-linearity near bandwidth saturation, last-level-cache spill
// (adaptive or cliff-like, §2.2/§6.2 of the paper), per-run measurement
// noise, and per-thread work growth (the equake violation, §6.3). Pandia
// observes none of this directly; it only sees run times and counters, just
// as on real hardware. The gap between the testbed's physics and Pandia's
// model is what produces realistic, structured prediction error.
//
// Nothing outside this package and the benchmark zoo may read the truth
// structs to make predictions; the predictor consumes only measured machine
// and workload descriptions.
package simhw

import (
	"fmt"
	"math"

	"pandia/internal/counters"
	"pandia/internal/topology"
)

// MachineTruth is the ground-truth hardware model of one machine. Bandwidth
// capacities are in the same abstract units as counters.Rates and are quoted
// at the all-core turbo frequency (the reference operating point, because
// the paper's methodology fills idle cores during profiling, §6.3).
type MachineTruth struct {
	Topo topology.Machine

	// Frequency behaviour (GHz). TurboMaxGHz applies when few cores on a
	// socket are active, TurboAllGHz when every core is active; the testbed
	// interpolates linearly in the active-core count. NominalGHz applies
	// when Turbo Boost is disabled.
	NominalGHz  float64 //pandia:unit hertz
	TurboMaxGHz float64 //pandia:unit hertz
	TurboAllGHz float64 //pandia:unit hertz

	// CoreInstrRate is the peak instruction throughput of one core at the
	// reference frequency with a single hardware thread active.
	CoreInstrRate float64 //pandia:unit instructions/sec
	// SMTAggFactor is the total instruction throughput of a core running
	// two hardware threads, relative to one (e.g. 1.25: two threads issue
	// 25% more than one, so each achieves ~62.5% of solo speed).
	SMTAggFactor float64 //pandia:unit ratio

	// Per-core link bandwidths (scale with core frequency).
	L1BW     float64 //pandia:unit bytes/sec
	L2BW     float64 //pandia:unit bytes/sec
	L3LinkBW float64 //pandia:unit bytes/sec
	// Per-socket capacities.
	L3AggBW float64 //pandia:unit bytes/sec
	DRAMBW  float64 //pandia:unit bytes/sec
	// Per-socket-pair interconnect link bandwidth.
	InterconnectBW float64 //pandia:unit bytes/sec

	// L3SizeMB is the last-level cache capacity per socket, used by the
	// spill model. Zero disables spill (the toy machine has no caches).
	L3SizeMB float64 //pandia:unit bytes
	// AdaptiveCache selects the smooth spill response of modern adaptive
	// caches; false selects the sharper cliff of older parts (Westmere).
	AdaptiveCache bool

	// QueueFactor is the strength of the non-linear latency term near and
	// beyond bandwidth saturation. Zero gives the idealised linear model.
	QueueFactor float64 //pandia:unit ratio
	// NoiseSigma is the standard deviation of the multiplicative log-normal
	// run-time measurement noise.
	NoiseSigma float64 //pandia:unit ratio
}

// Validate reports whether the truth is internally consistent.
func (mt *MachineTruth) Validate() error {
	if err := mt.Topo.Validate(); err != nil {
		return err
	}
	if v, bad := firstNonFinite(
		field{"NominalGHz", mt.NominalGHz},
		field{"TurboMaxGHz", mt.TurboMaxGHz},
		field{"TurboAllGHz", mt.TurboAllGHz},
		field{"CoreInstrRate", mt.CoreInstrRate},
		field{"SMTAggFactor", mt.SMTAggFactor},
		field{"L1BW", mt.L1BW},
		field{"L2BW", mt.L2BW},
		field{"L3LinkBW", mt.L3LinkBW},
		field{"L3AggBW", mt.L3AggBW},
		field{"DRAMBW", mt.DRAMBW},
		field{"InterconnectBW", mt.InterconnectBW},
		field{"L3SizeMB", mt.L3SizeMB},
		field{"QueueFactor", mt.QueueFactor},
		field{"NoiseSigma", mt.NoiseSigma},
	); bad {
		return fmt.Errorf("simhw: %s: %v", mt.Topo.Name, v)
	}
	if mt.CoreInstrRate <= 0 {
		return fmt.Errorf("simhw: %s: non-positive core instruction rate", mt.Topo.Name)
	}
	if mt.SMTAggFactor < 1 || mt.SMTAggFactor > float64(mt.Topo.ThreadsPerCore) {
		return fmt.Errorf("simhw: %s: SMT aggregate factor %g outside [1,%d]",
			mt.Topo.Name, mt.SMTAggFactor, mt.Topo.ThreadsPerCore)
	}
	if mt.DRAMBW <= 0 {
		return fmt.Errorf("simhw: %s: non-positive DRAM bandwidth", mt.Topo.Name)
	}
	if mt.Topo.Sockets > 1 && mt.InterconnectBW <= 0 {
		return fmt.Errorf("simhw: %s: multi-socket machine needs interconnect bandwidth", mt.Topo.Name)
	}
	if mt.TurboAllGHz <= 0 || mt.TurboMaxGHz < mt.TurboAllGHz || mt.NominalGHz <= 0 {
		return fmt.Errorf("simhw: %s: inconsistent frequency table (nominal %g, all-core %g, max %g)",
			mt.Topo.Name, mt.NominalGHz, mt.TurboAllGHz, mt.TurboMaxGHz)
	}
	for _, b := range []float64{mt.L1BW, mt.L2BW, mt.L3LinkBW, mt.L3AggBW, mt.InterconnectBW} {
		if b < 0 {
			return fmt.Errorf("simhw: %s: negative bandwidth capacity", mt.Topo.Name)
		}
	}
	if mt.QueueFactor < 0 || mt.NoiseSigma < 0 {
		return fmt.Errorf("simhw: %s: negative queue factor or noise", mt.Topo.Name)
	}
	return nil
}

// WorkloadTruth is the ground-truth behaviour of one workload on the
// reference machine scale. The benchmark zoo (internal/bench) defines one of
// these per paper benchmark; profiling observes them only through runs.
type WorkloadTruth struct {
	Name string

	// SeqTime is the single-thread execution time (seconds) at the
	// reference frequency, absent any contention.
	SeqTime float64 //pandia:unit seconds
	// ParallelFrac is the true Amdahl parallel fraction p.
	ParallelFrac float64 //pandia:unit ratio
	// Demand is the per-thread resource demand vector at full speed. The
	// Interconnect component is ignored: interconnect traffic is derived
	// from DRAM demand and memory placement.
	Demand counters.Rates
	// WorkingSetMB is the per-thread hot working set, driving L3 spill.
	WorkingSetMB float64 //pandia:unit bytes
	// CommCost is the true per-remote-peer latency overhead, relative to
	// SeqTime (the quantity Pandia estimates as os, §4.3).
	CommCost float64 //pandia:unit ratio
	// LoadBalance is the true dynamic load-balancing factor l in [0,1].
	LoadBalance float64 //pandia:unit ratio
	// Burstiness is the true core-sharing sensitivity b (§4.5).
	Burstiness float64 //pandia:unit ratio
	// WorkGrowth is the extra total work added per extra thread, as a
	// fraction of SeqTime (equake's reduction step; zero for conforming
	// workloads).
	WorkGrowth float64 //pandia:unit ratio
	// MemBoundFrac is the fraction of progress limited by the memory system
	// rather than the core clock; it damps sensitivity to frequency.
	MemBoundFrac float64 //pandia:unit ratio
	// ActiveThreads caps how many placed threads actually perform work
	// (the single-threaded NPO experiment, §6.3). Zero means all threads.
	ActiveThreads int
	// NoiseSigma overrides the machine's measurement noise when positive.
	NoiseSigma float64 //pandia:unit ratio
}

// Validate reports whether the workload truth is usable.
func (wt *WorkloadTruth) Validate() error {
	if v, bad := firstNonFinite(
		field{"SeqTime", wt.SeqTime},
		field{"ParallelFrac", wt.ParallelFrac},
		field{"Demand.Instr", wt.Demand.Instr},
		field{"Demand.L1", wt.Demand.L1},
		field{"Demand.L2", wt.Demand.L2},
		field{"Demand.L3", wt.Demand.L3},
		field{"Demand.DRAM", wt.Demand.DRAM},
		field{"Demand.Interconnect", wt.Demand.Interconnect},
		field{"WorkingSetMB", wt.WorkingSetMB},
		field{"CommCost", wt.CommCost},
		field{"LoadBalance", wt.LoadBalance},
		field{"Burstiness", wt.Burstiness},
		field{"WorkGrowth", wt.WorkGrowth},
		field{"MemBoundFrac", wt.MemBoundFrac},
		field{"NoiseSigma", wt.NoiseSigma},
	); bad {
		return fmt.Errorf("simhw: workload %q: %v", wt.Name, v)
	}
	switch {
	case wt.SeqTime <= 0:
		return fmt.Errorf("simhw: workload %q: non-positive sequential time", wt.Name)
	case wt.ParallelFrac < 0 || wt.ParallelFrac > 1:
		return fmt.Errorf("simhw: workload %q: parallel fraction %g outside [0,1]", wt.Name, wt.ParallelFrac)
	case wt.LoadBalance < 0 || wt.LoadBalance > 1:
		return fmt.Errorf("simhw: workload %q: load balance %g outside [0,1]", wt.Name, wt.LoadBalance)
	case wt.Burstiness < 0:
		return fmt.Errorf("simhw: workload %q: negative burstiness", wt.Name)
	case wt.CommCost < 0:
		return fmt.Errorf("simhw: workload %q: negative communication cost", wt.Name)
	case wt.WorkGrowth < 0:
		return fmt.Errorf("simhw: workload %q: negative work growth", wt.Name)
	case wt.MemBoundFrac < 0 || wt.MemBoundFrac > 1:
		return fmt.Errorf("simhw: workload %q: memory-bound fraction %g outside [0,1]", wt.Name, wt.MemBoundFrac)
	case wt.ActiveThreads < 0:
		return fmt.Errorf("simhw: workload %q: negative active-thread cap", wt.Name)
	case wt.Demand.Instr < 0 || wt.Demand.L1 < 0 || wt.Demand.L2 < 0 || wt.Demand.L3 < 0 || wt.Demand.DRAM < 0:
		return fmt.Errorf("simhw: workload %q: negative demand", wt.Name)
	}
	return nil
}

// field names one float field of a truth for the finiteness check.
type field struct {
	name string
	val  float64
}

// String reports the field as invalid: "NaN name" or "infinite name ±Inf".
func (f field) String() string {
	if math.IsNaN(f.val) {
		return "NaN " + f.name
	}
	return fmt.Sprintf("infinite %s %g", f.name, f.val)
}

// firstNonFinite returns the first NaN or ±Inf field. The range checks of
// Validate cannot catch these: every comparison with NaN is false, and
// +Inf passes any lower bound.
func firstNonFinite(fields ...field) (field, bool) {
	for _, f := range fields {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) {
			return f, true
		}
	}
	return field{}, false
}

// activeCount returns how many of n placed threads do work.
func (wt *WorkloadTruth) activeCount(n int) int {
	if wt.ActiveThreads > 0 && wt.ActiveThreads < n {
		return wt.ActiveThreads
	}
	return n
}
