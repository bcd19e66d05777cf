package core

import (
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// Options tunes the predictor. The zero value selects the paper's settings.
// The Disable* flags exist for the ablation benchmarks called out in
// DESIGN.md; production predictions leave them false.
type Options struct {
	// MaxIterations caps the refinement loop; 0 means the default (1000).
	MaxIterations int
	// DampenAfter engages the oscillation-dampening average after this
	// many iterations (§5.4: "a dampening function engages after a 100
	// iterations"); 0 means the default (100).
	DampenAfter int
	// Tolerance is the convergence threshold on the utilisation factors;
	// 0 means the default (1e-9).
	Tolerance float64

	// Tracer, when non-nil and enabled, receives one event per refinement
	// iteration (residual, per-kind load summary, dominant resource) plus
	// start/end markers, recorded from inside the solver loop. A nil or
	// disabled tracer costs a single branch per iteration — the
	// zero-allocation fast path is pinned with one wired in.
	Tracer obs.Tracer

	// SpanID, when nonzero, is stamped into every trace event the solver
	// emits (Event.Span), linking the solve's iterations to the scheduler
	// decision that requested it — one Perfetto timeline shows the
	// operation span and its solver iterations causally joined. Like
	// Tracer it changes no computed number and is excluded from the
	// canonical cache hash.
	SpanID int64

	// AllowDegraded lets Predict return a best-effort result instead of an
	// error when the inputs fail validation but are repairable (missing or
	// corrupted capacities and parameters are substituted pessimistically),
	// and fall back to the Amdahl-only model when the iteration does not
	// converge. Degraded results carry Degraded=true plus the reasons.
	AllowDegraded bool

	// SinglePass stops after the first iteration (ablation).
	SinglePass bool
	// DisableBurstiness drops the core-sharing term (ablation).
	DisableBurstiness bool
	// DisableComm drops the inter-socket communication penalty (ablation).
	DisableComm bool
	// DisableLoadBalance drops the load-balancing penalty (ablation).
	DisableLoadBalance bool
}

func (o Options) maxIters() int {
	if o.SinglePass {
		return 1
	}
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 1000
}

func (o Options) dampenAfter() int {
	if o.DampenAfter > 0 {
		return o.DampenAfter
	}
	return 100
}

func (o Options) tolerance() float64 {
	if o.Tolerance > 0 {
		return o.Tolerance
	}
	return 1e-9
}

// Prediction is the predictor's output for one placement.
type Prediction struct {
	// Time is the predicted execution time in seconds.
	Time float64
	// Speedup is the predicted speedup relative to the single-thread run.
	Speedup float64
	// AmdahlSpeedup is the ideal-scaling component of the prediction.
	AmdahlSpeedup float64
	// Slowdowns is the converged overall slowdown per thread.
	Slowdowns []float64
	// ResourceSlowdowns is the converged contention-only slowdown per
	// thread (including the burstiness term).
	ResourceSlowdowns []float64
	// CommPenalties and LoadBalancePenalties are the converged additive
	// slowdown contributions of the communication and load-balancing
	// steps per thread (Fig. 7's "+ communication penalty" and "+ load
	// balance penalty" rows).
	CommPenalties        []float64
	LoadBalancePenalties []float64
	// Utilizations is the converged thread utilisation factor per thread.
	Utilizations []float64
	// Bottlenecks names each thread's dominant contended resource kind;
	// ResInstr with slowdown 1.0 means unconstrained.
	Bottlenecks []topology.ResourceKind
	// Loads is the predicted demand on every resource the workload
	// touches, at converged utilisations — the resource-consumption
	// prediction the paper highlights for co-scheduling (§6.3, §8).
	Loads map[topology.ResourceID]float64
	// WorstResource identifies the most oversubscribed resource at the
	// converged loads and WorstOversubscription its load/capacity ratio (at
	// most 1 when the placement fits the machine). For joint predictions the
	// loads — and therefore these fields — cover the whole co-schedule. The
	// zero ResourceID with ratio 0 means no resource carried load (e.g. the
	// Amdahl-only degraded fallback).
	WorstResource         topology.ResourceID
	WorstOversubscription float64
	// Iterations is how many refinement rounds ran; Converged reports
	// whether the utilisations stabilised within tolerance.
	Iterations int
	Converged  bool
	// Degraded marks a best-effort prediction produced under
	// Options.AllowDegraded: inputs were repaired before prediction, or the
	// iteration fell back to the Amdahl-only model. DegradedReasons lists
	// every substitution that was made.
	Degraded        bool
	DegradedReasons []string
}

// Predict runs the iterative prediction of §5 for the workload placed as
// given on the described machine.
//
// With Options.AllowDegraded, repairable input defects are fixed on private
// copies before prediction, and non-convergence falls back to the
// Amdahl-only model; either path marks the result Degraded with the list of
// substitutions. Unrepairable inputs (bad T1, bad topology, bad placement)
// still return an error.
func Predict(md *machine.Description, w *Workload, place placement.Placement, opt Options) (*Prediction, error) {
	p, err := NewPredictor(md, w, opt)
	if err != nil {
		return nil, err
	}
	return p.Predict(place)
}

// amdahlOnly builds the degraded fallback prediction: ideal Amdahl scaling
// with every contention, communication, and load-balancing term dropped.
func amdahlOnly(w *Workload, n, iters int) *Prediction {
	sp := w.AmdahlSpeedup(n)
	ones := make([]float64, n)
	utils := make([]float64, n)
	for i := range ones {
		ones[i] = 1
		utils[i] = SafeDiv(sp, float64(n), 1)
	}
	return &Prediction{
		Time:                 SafeDiv(w.T1, sp, w.T1),
		Speedup:              sp,
		AmdahlSpeedup:        sp,
		Slowdowns:            ones,
		ResourceSlowdowns:    append([]float64(nil), ones...),
		CommPenalties:        make([]float64, n),
		LoadBalancePenalties: make([]float64, n),
		Utilizations:         utils,
		Bottlenecks:          make([]topology.ResourceKind, n),
		Loads:                map[topology.ResourceID]float64{},
		Iterations:           iters,
		Converged:            false,
	}
}
