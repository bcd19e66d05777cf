// Package counters defines the virtual performance-counter sample that the
// simulated hardware testbed emits for each run, standing in for the CPU
// performance counters the paper reads (instructions retired, per-level
// cache traffic, DRAM and interconnect bytes).
//
// Units follow the paper's convention (§3): any consistent scale works
// because the model only ever compares demands against capacities measured
// with the same counters. Throughout this repository rates are "units per
// second" with bandwidths on a GB/s-like scale and instruction rates on a
// Ginstr/s-like scale.
package counters

import (
	"fmt"
	"math"
)

// Sample aggregates the counters observed over one run of a workload.
type Sample struct {
	// Elapsed is the wall-clock duration of the run in seconds.
	Elapsed float64 `json:"elapsed"`
	// Instructions is the total useful instructions executed by the
	// workload's threads (excluding busy-wait spinning, which good
	// implementations keep off the pipeline; §2.3).
	Instructions float64 `json:"instructions"`
	// L1Bytes .. DRAMBytes are total traffic volumes at each level of the
	// memory hierarchy.
	L1Bytes   float64 `json:"l1Bytes"`
	L2Bytes   float64 `json:"l2Bytes"`
	L3Bytes   float64 `json:"l3Bytes"`
	DRAMBytes float64 `json:"dramBytes"`
	// InterconnectBytes is the total traffic crossing socket-pair links.
	InterconnectBytes float64 `json:"interconnectBytes"`
	// Threads is the number of workload threads active during the run.
	Threads int `json:"threads"`
}

// Validate reports whether the sample is internally consistent: a positive
// finite elapsed time, a non-negative thread count, and finite non-negative
// counter volumes. Corrupted counter reads (NaN/±Inf, the fault model of
// internal/faults) are named by field so quality reports can say which
// counter went bad.
func (s Sample) Validate() error {
	if math.IsNaN(s.Elapsed) || math.IsInf(s.Elapsed, 0) {
		return fmt.Errorf("counters: non-finite elapsed time %g", s.Elapsed)
	}
	if s.Elapsed <= 0 {
		return fmt.Errorf("counters: non-positive elapsed time %g", s.Elapsed)
	}
	if s.Threads < 0 {
		return fmt.Errorf("counters: negative thread count %d", s.Threads)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"instructions", s.Instructions},
		{"l1Bytes", s.L1Bytes},
		{"l2Bytes", s.L2Bytes},
		{"l3Bytes", s.L3Bytes},
		{"dramBytes", s.DRAMBytes},
		{"interconnectBytes", s.InterconnectBytes},
	} {
		switch {
		case math.IsNaN(v.val):
			return fmt.Errorf("counters: NaN %s", v.name)
		case math.IsInf(v.val, 0):
			return fmt.Errorf("counters: infinite %s %g", v.name, v.val)
		case v.val < 0:
			return fmt.Errorf("counters: negative %s %g", v.name, v.val)
		}
	}
	return nil
}

// Rates converts the cumulative sample into whole-workload average rates
// (units per second).
func (s Sample) Rates() Rates {
	if s.Elapsed <= 0 {
		return Rates{}
	}
	inv := 1 / s.Elapsed
	return Rates{
		Instr:        s.Instructions * inv,
		L1:           s.L1Bytes * inv,
		L2:           s.L2Bytes * inv,
		L3:           s.L3Bytes * inv,
		DRAM:         s.DRAMBytes * inv,
		Interconnect: s.InterconnectBytes * inv,
	}
}

// PerThreadRates divides the whole-workload rates by the thread count,
// yielding the average per-thread demand rates the workload model stores
// (§4.1). It returns the whole-workload rates unchanged when the sample has
// zero or one thread.
func (s Sample) PerThreadRates() Rates {
	r := s.Rates()
	if s.Threads > 1 {
		r = r.Scale(1 / float64(s.Threads))
	}
	return r
}

// Rates is a vector of average resource-consumption rates per second: Instr
// of instructions, the other fields of traffic volume, on the scale the
// package doc gives. It mirrors the paper's per-thread demand vector d.
type Rates struct {
	Instr        float64 `json:"instr"`
	L1           float64 `json:"l1"`
	L2           float64 `json:"l2"`
	L3           float64 `json:"l3"`
	DRAM         float64 `json:"dram"`
	Interconnect float64 `json:"interconnect"`
}

// Scale returns the rates multiplied by k.
func (r Rates) Scale(k float64) Rates {
	return Rates{
		Instr:        r.Instr * k,
		L1:           r.L1 * k,
		L2:           r.L2 * k,
		L3:           r.L3 * k,
		DRAM:         r.DRAM * k,
		Interconnect: r.Interconnect * k,
	}
}

// Add returns the element-wise sum of two rate vectors.
func (r Rates) Add(o Rates) Rates {
	return Rates{
		Instr:        r.Instr + o.Instr,
		L1:           r.L1 + o.L1,
		L2:           r.L2 + o.L2,
		L3:           r.L3 + o.L3,
		DRAM:         r.DRAM + o.DRAM,
		Interconnect: r.Interconnect + o.Interconnect,
	}
}

// Max returns the largest component of the vector.
func (r Rates) Max() float64 {
	m := r.Instr
	for _, v := range []float64{r.L1, r.L2, r.L3, r.DRAM, r.Interconnect} {
		if v > m {
			m = v
		}
	}
	return m
}

// String renders the rates compactly for logs and reports.
func (r Rates) String() string {
	return fmt.Sprintf("instr=%.2f l1=%.1f l2=%.1f l3=%.1f dram=%.1f ic=%.1f",
		r.Instr, r.L1, r.L2, r.L3, r.DRAM, r.Interconnect)
}
