package core

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"

	"pandia/internal/machine"
	"pandia/internal/topology"
)

// The predictor's fixed-point loop degrades silently: a NaN utilisation or a
// slowdown below 1 does not crash, it just converges to (or oscillates
// around) a garbage prediction. The checks in this file assert the model's
// structural invariants at runtime so such bugs fail loudly in debug runs.
// They are off by default — enable them with the PANDIA_CHECK_INVARIANTS
// environment variable, or from tests via SetInvariantChecks.

var invariantChecks atomic.Bool

func init() {
	switch os.Getenv("PANDIA_CHECK_INVARIANTS") {
	case "", "0", "false", "off":
	default:
		invariantChecks.Store(true)
	}
}

// SetInvariantChecks switches the runtime invariant checks on or off and
// returns the previous setting. Tests use it to exercise the checks without
// depending on the environment.
func SetInvariantChecks(on bool) bool { return invariantChecks.Swap(on) }

// InvariantChecksEnabled reports whether predictions are being self-checked.
func InvariantChecksEnabled() bool { return invariantChecks.Load() }

// invariantSlack absorbs float round-off in comparisons that are exact in
// real arithmetic (e.g. sTot = sRes + penalties accumulated in a different
// order).
const invariantSlack = 1e-6

func finitePositive(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x > 0
}

// CheckInvariants asserts the structural invariants of one prediction:
// outputs finite and positive, slowdowns at least 1 with non-negative
// penalty contributions, speedup bounded by Amdahl's law, utilisations in
// (0, 1], and every reported load a positive finite demand on a resource
// that exists on the machine. It returns nil for a sound prediction and a
// descriptive error for the first violation found. w and md may be nil when
// the caller only has the prediction.
func CheckInvariants(w *Workload, md *machine.Description, p *Prediction) error {
	if p == nil {
		return fmt.Errorf("core: invariant: nil prediction")
	}
	n := len(p.Slowdowns)
	if n == 0 {
		return fmt.Errorf("core: invariant: prediction has no per-thread slowdowns")
	}
	for _, c := range []struct {
		name string
		l    int
	}{
		{"ResourceSlowdowns", len(p.ResourceSlowdowns)},
		{"CommPenalties", len(p.CommPenalties)},
		{"LoadBalancePenalties", len(p.LoadBalancePenalties)},
		{"Utilizations", len(p.Utilizations)},
		{"Bottlenecks", len(p.Bottlenecks)},
	} {
		if c.l != n {
			return fmt.Errorf("core: invariant: len(%s) = %d, want %d threads", c.name, c.l, n)
		}
	}
	if !finitePositive(p.Time) {
		return fmt.Errorf("core: invariant: non-positive or non-finite predicted time %g", p.Time)
	}
	if !finitePositive(p.Speedup) {
		return fmt.Errorf("core: invariant: non-positive or non-finite speedup %g", p.Speedup)
	}
	if !finitePositive(p.AmdahlSpeedup) || p.AmdahlSpeedup < 1-invariantSlack {
		return fmt.Errorf("core: invariant: Amdahl speedup %g below 1", p.AmdahlSpeedup)
	}
	if p.AmdahlSpeedup > float64(n)*(1+invariantSlack) {
		return fmt.Errorf("core: invariant: Amdahl speedup %g exceeds thread count %d", p.AmdahlSpeedup, n)
	}
	// Contention, communication and load balancing only ever slow a
	// workload down, so the predicted speedup cannot beat ideal scaling.
	if p.Speedup > p.AmdahlSpeedup*(1+invariantSlack) {
		return fmt.Errorf("core: invariant: speedup %g exceeds Amdahl bound %g", p.Speedup, p.AmdahlSpeedup)
	}
	if w != nil {
		// Time, T1 and speedup must tell one consistent story.
		if d := math.Abs(p.Time*p.Speedup - w.T1); d > invariantSlack*w.T1 {
			return fmt.Errorf("core: invariant: time %g * speedup %g differs from T1 %g", p.Time, p.Speedup, w.T1)
		}
	}
	for i := 0; i < n; i++ {
		sRes, sTot := p.ResourceSlowdowns[i], p.Slowdowns[i]
		if !finitePositive(sRes) || sRes < 1-invariantSlack {
			return fmt.Errorf("core: invariant: thread %d resource slowdown %g below 1", i, sRes)
		}
		if !finitePositive(sTot) || sTot < sRes-invariantSlack*sRes {
			return fmt.Errorf("core: invariant: thread %d slowdown %g below its resource slowdown %g", i, sTot, sRes)
		}
		comm, lb := p.CommPenalties[i], p.LoadBalancePenalties[i]
		if math.IsNaN(comm) || comm < -invariantSlack {
			return fmt.Errorf("core: invariant: thread %d negative communication penalty %g", i, comm)
		}
		if math.IsNaN(lb) || lb < -invariantSlack {
			return fmt.Errorf("core: invariant: thread %d negative load-balance penalty %g", i, lb)
		}
		if d := math.Abs(sRes + comm + lb - sTot); d > invariantSlack*sTot {
			return fmt.Errorf("core: invariant: thread %d slowdown %g does not decompose into %g + %g + %g", i, sTot, sRes, comm, lb)
		}
		f := p.Utilizations[i]
		if !finitePositive(f) || f > 1+invariantSlack {
			return fmt.Errorf("core: invariant: thread %d utilisation %g outside (0, 1]", i, f)
		}
		if k := p.Bottlenecks[i]; k < 0 || int(k) >= topology.NumResourceKinds {
			return fmt.Errorf("core: invariant: thread %d bottleneck kind %d unknown", i, int(k))
		}
	}
	// Report load violations in resource order so a failing check names the
	// same resource on every run (map iteration order is random).
	ids := make([]topology.ResourceID, 0, len(p.Loads))
	for id := range p.Loads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	for _, id := range ids {
		v := p.Loads[id]
		if !finitePositive(v) {
			return fmt.Errorf("core: invariant: load on %v is %g, want positive finite", id, v)
		}
		if id.Kind < 0 || int(id.Kind) >= topology.NumResourceKinds {
			return fmt.Errorf("core: invariant: load on unknown resource kind %d", int(id.Kind))
		}
		if md != nil {
			topo := md.Topo
			switch {
			case id.Kind.PerCore() && (id.Index < 0 || id.Index >= topo.TotalCores()):
				return fmt.Errorf("core: invariant: load on %v outside machine with %d cores", id, topo.TotalCores())
			case id.Kind.PerSocket() && (id.Index < 0 || id.Index >= topo.Sockets):
				return fmt.Errorf("core: invariant: load on %v outside machine with %d sockets", id, topo.Sockets)
			case id.Kind == topology.ResInterconnect &&
				(id.Pair.Lo < 0 || id.Pair.Hi >= topo.Sockets || id.Pair.Lo >= id.Pair.Hi):
				return fmt.Errorf("core: invariant: load on malformed interconnect link %v", id)
			}
		}
	}
	return nil
}

// checkIteration validates the engine's solver state after one refinement
// round; the engine records the first violation so the surrounding Predict
// call can name the iteration that went wrong rather than just the
// converged wreckage. Threads are walked in placement order, so the error
// names the first thread of the first failing class.
func (e *engine) checkIteration(iter int) error {
	for jIdx, j := range e.jobs {
		for i, k := range j.classOf {
			cl := &j.classes[k]
			if !finitePositive(cl.f) {
				return fmt.Errorf("core: invariant: iteration %d: workload %d (%s) thread %d utilisation %g",
					iter, jIdx, j.w.Name, i, cl.f)
			}
			if !finitePositive(cl.sRes) || cl.sRes < 1-invariantSlack {
				return fmt.Errorf("core: invariant: iteration %d: workload %d (%s) thread %d resource slowdown %g",
					iter, jIdx, j.w.Name, i, cl.sRes)
			}
			if !finitePositive(cl.sTot) || cl.sTot < cl.sRes-invariantSlack*cl.sRes {
				return fmt.Errorf("core: invariant: iteration %d: workload %d (%s) thread %d slowdown %g below resource slowdown %g",
					iter, jIdx, j.w.Name, i, cl.sTot, cl.sRes)
			}
		}
	}
	return nil
}
