package core

import (
	"fmt"
	"sort"
	"strings"

	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// Explain renders a prediction as the per-thread table of the paper's
// worked example (Fig. 7): resource slowdown, communication penalty,
// load-balance penalty, overall slowdown, and utilisation for every thread,
// plus the headline numbers.
func Explain(pred *Prediction, place placement.Placement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %9s %7s %7s %9s %6s  %s\n",
		"thread", "context", "resource", "+comm", "+lb", "overall", "util", "bottleneck")
	for i := range place {
		fmt.Fprintf(&b, "%-12d %-12s %9.2f %7.2f %7.2f %9.2f %6.2f  %v\n",
			i, place[i],
			pred.ResourceSlowdowns[i], pred.CommPenalties[i], pred.LoadBalancePenalties[i],
			pred.Slowdowns[i], pred.Utilizations[i], pred.Bottlenecks[i])
	}
	fmt.Fprintf(&b, "Amdahl speedup %.2fx, predicted speedup %.2fx, time %.4gs (%d iterations, converged=%v)\n",
		pred.AmdahlSpeedup, pred.Speedup, pred.Time, pred.Iterations, pred.Converged)
	return b.String()
}

// ResourceAttribution summarises one resource kind at the converged loads:
// the worst-utilised instance and its load/capacity ratio.
type ResourceAttribution struct {
	Kind topology.ResourceKind
	// Instance is the kind's most loaded concrete resource.
	Instance topology.ResourceID
	// Utilisation is that instance's load/capacity ratio; above 1 the
	// resource is oversubscribed and bounds whoever depends on it.
	Utilisation float64
}

// SocketAttribution explains which contention level bounds the threads
// placed on one socket, and how their predicted execution time splits
// across the model's mechanisms. The four shares sum to 1: BaseShare is
// useful work at ideal speed, ResourceShare the paper-§5.1 contention and
// burstiness slowdown, CommShare the §5.2 inter-socket communication
// penalty, and LoadBalanceShare the §5.3 straggler-wait penalty.
type SocketAttribution struct {
	Socket  int
	Threads int
	// Bottleneck is the resource kind bottlenecking the socket's slowest
	// thread (ResInstr with Slowdown 1 means unconstrained).
	Bottleneck topology.ResourceKind
	// Slowdown is the worst per-thread overall slowdown on the socket.
	Slowdown         float64
	BaseShare        float64
	ResourceShare    float64
	CommShare        float64
	LoadBalanceShare float64
}

// Explanation is the structured explainability report for one prediction:
// the headline numbers, the dominant resource, per-resource-kind
// utilisation, per-socket contention attribution, and the convergence
// story. Build one with ExplainPrediction and render it with Render.
type Explanation struct {
	Workload string
	Threads  int
	// Time is the predicted execution time in seconds; Speedup and
	// AmdahlSpeedup are ratios to the single-thread run. All three are
	// copied from the Prediction.
	Time          float64
	Speedup       float64
	AmdahlSpeedup float64

	// Dominant is the most oversubscribed resource across the machine at
	// the converged loads, with its load/capacity ratio. It is computed
	// from the prediction's Loads map and agrees with
	// Prediction.WorstResource.
	Dominant      topology.ResourceID
	DominantRatio float64

	// Resources lists every loaded resource kind, most utilised first.
	Resources []ResourceAttribution
	// Sockets attributes each socket's thread-time, in socket order.
	Sockets []SocketAttribution

	Iterations      int
	Converged       bool
	Degraded        bool
	DegradedReasons []string
}

// ExplainPrediction builds the contention attribution for a solo
// prediction of the given placement on the given machine. The prediction
// must come from Predict/Predictor.Predict with this placement — the
// per-thread vectors and the Loads map are read, not recomputed.
func ExplainPrediction(md *machine.Description, pred *Prediction, place placement.Placement) (*Explanation, error) {
	if pred == nil {
		return nil, fmt.Errorf("core: nil prediction")
	}
	if len(pred.Slowdowns) != len(place) {
		return nil, fmt.Errorf("core: prediction has %d threads, placement %d — not the placement this prediction was made for",
			len(pred.Slowdowns), len(place))
	}
	topo := md.Topo
	ex := &Explanation{
		Threads:         len(place),
		Time:            pred.Time,
		Speedup:         pred.Speedup,
		AmdahlSpeedup:   pred.AmdahlSpeedup,
		Iterations:      pred.Iterations,
		Converged:       pred.Converged,
		Degraded:        pred.Degraded,
		DegradedReasons: pred.DegradedReasons,
	}

	// Per-kind utilisation and the dominant resource, from the Loads map in
	// sorted resource order so ties resolve like Prediction.WorstResource.
	occ := make([]int, topo.TotalCores())
	for _, c := range place {
		occ[topo.GlobalCore(c)]++
	}
	ids := make([]topology.ResourceID, 0, len(pred.Loads))
	for id := range pred.Loads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Less(ids[b]) })
	var perKind [topology.NumResourceKinds]ResourceAttribution
	for _, id := range ids {
		cap := md.Capacity(id.Kind)
		if id.Kind == topology.ResInstr {
			cap = md.InstrCapacity(occ[id.Index])
		}
		if cap <= 0 {
			continue
		}
		r := pred.Loads[id] / cap //nanguard:ok skipped above unless cap > 0
		if r > perKind[id.Kind].Utilisation {
			perKind[id.Kind] = ResourceAttribution{Kind: id.Kind, Instance: id, Utilisation: r}
		}
		if r > ex.DominantRatio {
			ex.Dominant, ex.DominantRatio = id, r
		}
	}
	for _, ra := range perKind {
		if ra.Utilisation > 0 {
			ex.Resources = append(ex.Resources, ra)
		}
	}
	// Most utilised kind first; equal utilisations keep kind order.
	sort.SliceStable(ex.Resources, func(a, b int) bool {
		return ex.Resources[a].Utilisation > ex.Resources[b].Utilisation
	})

	// Per-socket attribution: sum each mechanism's slowdown contribution
	// over the socket's threads, as shares of their total predicted
	// thread-time (Σ overall slowdown).
	for s := 0; s < topo.Sockets; s++ {
		var sa SocketAttribution
		sa.Socket = s
		var base, res, comm, lb, total float64
		worstThread := -1
		for i, c := range place {
			if c.Socket != s {
				continue
			}
			sa.Threads++
			base += 1
			res += pred.ResourceSlowdowns[i] - 1
			comm += pred.CommPenalties[i]
			lb += pred.LoadBalancePenalties[i]
			total += pred.Slowdowns[i]
			if pred.Slowdowns[i] > sa.Slowdown {
				sa.Slowdown = pred.Slowdowns[i]
				worstThread = i
			}
		}
		if sa.Threads == 0 {
			continue
		}
		if worstThread >= 0 {
			sa.Bottleneck = pred.Bottlenecks[worstThread]
		}
		sa.BaseShare = SafeDiv(base, total, 1)
		sa.ResourceShare = SafeDiv(res, total, 0)
		sa.CommShare = SafeDiv(comm, total, 0)
		sa.LoadBalanceShare = SafeDiv(lb, total, 0)
		ex.Sockets = append(ex.Sockets, sa)
	}
	return ex, nil
}

// Render formats the explanation for a terminal: the headline, the
// convergence report, the per-resource utilisation table (paper-§5 resource
// names), and the per-socket attribution.
func (ex *Explanation) Render() string {
	var b strings.Builder
	name := ex.Workload
	if name == "" {
		name = "workload"
	}
	fmt.Fprintf(&b, "%s on %d threads: time %.4gs, speedup %.2fx (Amdahl limit %.2fx)\n",
		name, ex.Threads, ex.Time, ex.Speedup, ex.AmdahlSpeedup)
	if ex.Converged {
		fmt.Fprintf(&b, "converged in %d iterations\n", ex.Iterations)
	} else {
		fmt.Fprintf(&b, "did not converge within %d iterations\n", ex.Iterations)
	}
	if ex.Degraded {
		fmt.Fprintf(&b, "DEGRADED prediction:\n")
		for _, r := range ex.DegradedReasons {
			fmt.Fprintf(&b, "  - %s\n", r)
		}
	}
	if ex.DominantRatio > 0 {
		fmt.Fprintf(&b, "dominant resource: %v at %.0f%% of capacity\n", ex.Dominant, 100*ex.DominantRatio)
	} else {
		fmt.Fprintf(&b, "no resource carries load (contention-free prediction)\n")
	}
	if len(ex.Resources) > 0 {
		fmt.Fprintf(&b, "\nper-resource utilisation (worst instance):\n")
		fmt.Fprintf(&b, "  %-14s %9s  %s\n", "resource", "load/cap", "instance")
		for _, ra := range ex.Resources {
			fmt.Fprintf(&b, "  %-14s %8.0f%%  %v\n", ra.Kind, 100*ra.Utilisation, ra.Instance)
		}
	}
	if len(ex.Sockets) > 0 {
		fmt.Fprintf(&b, "\nper-socket time attribution:\n")
		fmt.Fprintf(&b, "  %-9s %7s %12s %6s %10s %6s %6s\n",
			"socket", "threads", "bottleneck", "base", "resource", "comm", "lb")
		for _, sa := range ex.Sockets {
			fmt.Fprintf(&b, "  %-9d %7d %12s %5.0f%% %9.0f%% %5.0f%% %5.0f%%\n",
				sa.Socket, sa.Threads, sa.Bottleneck.String(),
				100*sa.BaseShare, 100*sa.ResourceShare, 100*sa.CommShare, 100*sa.LoadBalanceShare)
		}
	}
	return b.String()
}
