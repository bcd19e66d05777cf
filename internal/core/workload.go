// Package core implements Pandia's performance predictor — the paper's
// primary contribution (§5). Given a machine description, a workload
// description, and a proposed thread placement, it predicts the workload's
// slowdown per thread and overall speedup by iterating three effects until
// the thread utilisation factors converge: contention for hardware
// resources, inter-socket communication penalties, and load-balancing
// penalties.
package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"pandia/internal/counters"
)

// Workload is Pandia's model of one workload on one machine: the outputs of
// the six profiling runs of §4 (Fig. 4).
type Workload struct {
	Name string `json:"name"`

	// T1 is the single-thread execution time in seconds (step 1).
	T1 float64 `json:"t1"`
	// Demand is the per-thread resource demand vector d (step 1). The
	// Interconnect component is ignored: interconnect traffic is derived
	// from DRAM demand and the placement's memory spread.
	Demand counters.Rates `json:"demand"`
	// ParallelFrac is the Amdahl parallel fraction p (step 2).
	ParallelFrac float64 `json:"parallelFrac"`
	// InterSocketOverhead is os: the additional time, relative to T1, that
	// a thread incurs per thread placed on a different socket (step 3).
	InterSocketOverhead float64 `json:"interSocketOverhead"`
	// LoadBalance is l in [0,1]: 0 = lock-step static distribution,
	// 1 = fully dynamic work redistribution (step 4).
	LoadBalance float64 `json:"loadBalance"`
	// Burstiness is b: the extra slowdown fraction from co-locating two of
	// the workload's threads on one core (step 5).
	Burstiness float64 `json:"burstiness"`
}

// Validate reports whether the workload description is usable. NaN and ±Inf
// are rejected explicitly: a NaN parameter passes every range comparison
// below, so corrupted profiles would otherwise slip straight into the
// predictor and poison its fixed point.
func (w *Workload) Validate() error {
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"T1", w.T1},
		{"parallel fraction", w.ParallelFrac},
		{"inter-socket overhead", w.InterSocketOverhead},
		{"load balance", w.LoadBalance},
		{"burstiness", w.Burstiness},
		{"instr demand", w.Demand.Instr},
		{"l1 demand", w.Demand.L1},
		{"l2 demand", w.Demand.L2},
		{"l3 demand", w.Demand.L3},
		{"dram demand", w.Demand.DRAM},
	} {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) {
			return fmt.Errorf("core: workload %q: non-finite %s %g", w.Name, f.name, f.val)
		}
	}
	switch {
	case w.T1 <= 0:
		return fmt.Errorf("core: workload %q: non-positive T1", w.Name)
	case w.ParallelFrac < 0 || w.ParallelFrac > 1:
		return fmt.Errorf("core: workload %q: parallel fraction %g outside [0,1]", w.Name, w.ParallelFrac)
	case w.LoadBalance < 0 || w.LoadBalance > 1:
		return fmt.Errorf("core: workload %q: load balance %g outside [0,1]", w.Name, w.LoadBalance)
	case w.Burstiness < 0:
		return fmt.Errorf("core: workload %q: negative burstiness", w.Name)
	case w.InterSocketOverhead < 0:
		return fmt.Errorf("core: workload %q: negative inter-socket overhead", w.Name)
	case w.Demand.Instr < 0 || w.Demand.L1 < 0 || w.Demand.L2 < 0 || w.Demand.L3 < 0 || w.Demand.DRAM < 0:
		return fmt.Errorf("core: workload %q: negative demand", w.Name)
	}
	return nil
}

// Repair fixes the defects degraded-mode prediction can tolerate, in place,
// substituting the pessimistic end of each parameter's range, and returns
// one reason string per change. A corrupted parallel fraction becomes 0
// (serial — no speedup is promised that the workload might not deliver), a
// corrupted load balance becomes 0 (lock-step, the slowest redistribution),
// and corrupted overhead, burstiness, or demand components become 0 with the
// affected term dropped from the model. The defect Repair cannot fix — a
// non-positive or non-finite T1, the scale of everything else — is left for
// Validate to reject.
func (w *Workload) Repair() []string {
	var reasons []string
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(w.ParallelFrac) || w.ParallelFrac < 0 {
		reasons = append(reasons, fmt.Sprintf("workload %q: parallel fraction %g unusable; assuming serial (0)", w.Name, w.ParallelFrac))
		w.ParallelFrac = 0
	} else if w.ParallelFrac > 1 {
		reasons = append(reasons, fmt.Sprintf("workload %q: parallel fraction %g above 1; clamped to 1", w.Name, w.ParallelFrac))
		w.ParallelFrac = 1
	}
	if bad(w.LoadBalance) || w.LoadBalance < 0 {
		reasons = append(reasons, fmt.Sprintf("workload %q: load balance %g unusable; assuming lock-step (0)", w.Name, w.LoadBalance))
		w.LoadBalance = 0
	} else if w.LoadBalance > 1 {
		reasons = append(reasons, fmt.Sprintf("workload %q: load balance %g above 1; clamped to 1", w.Name, w.LoadBalance))
		w.LoadBalance = 1
	}
	if bad(w.InterSocketOverhead) || w.InterSocketOverhead < 0 {
		reasons = append(reasons, fmt.Sprintf("workload %q: inter-socket overhead %g unusable; communication term dropped", w.Name, w.InterSocketOverhead))
		w.InterSocketOverhead = 0
	}
	if bad(w.Burstiness) || w.Burstiness < 0 {
		reasons = append(reasons, fmt.Sprintf("workload %q: burstiness %g unusable; core-sharing term dropped", w.Name, w.Burstiness))
		w.Burstiness = 0
	}
	for _, d := range []struct {
		name string
		val  *float64
	}{
		{"instr", &w.Demand.Instr},
		{"l1", &w.Demand.L1},
		{"l2", &w.Demand.L2},
		{"l3", &w.Demand.L3},
		{"dram", &w.Demand.DRAM},
	} {
		if bad(*d.val) || *d.val < 0 {
			reasons = append(reasons, fmt.Sprintf("workload %q: %s demand %g unusable; contention on it no longer modelled", w.Name, d.name, *d.val))
			*d.val = 0
		}
	}
	return reasons
}

// AmdahlSpeedup returns the workload's ideal speedup on n threads.
func (w *Workload) AmdahlSpeedup(n int) float64 {
	return Amdahl(w.ParallelFrac, n)
}

// Amdahl computes Amdahl's-law speedup for parallel fraction p on n threads.
func Amdahl(p float64, n int) float64 {
	if n <= 1 {
		return 1
	}
	den := (1 - p) + p/float64(n)
	if den <= 0 {
		// Only reachable for p outside [0,1] (callers validate, but this is
		// also exported API): the ideal speedup is then linear at best.
		return float64(n)
	}
	return 1 / den
}

// Save writes the workload description to a JSON file.
func (w *Workload) Save(path string) error {
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding workload %q: %w", w.Name, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: writing %s: %w", path, err)
	}
	return nil
}

// LoadWorkload reads a workload description from a JSON file.
func LoadWorkload(path string) (*Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading %s: %w", path, err)
	}
	var w Workload
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decoding %s: %w", path, err)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// String summarises the workload description.
func (w *Workload) String() string {
	return fmt.Sprintf("%s: t1=%.3gs d=[%s] p=%.3f os=%.4f l=%.2f b=%.2f",
		w.Name, w.T1, w.Demand, w.ParallelFrac, w.InterSocketOverhead, w.LoadBalance, w.Burstiness)
}
