package core

import (
	"fmt"
	"math"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/topology"
)

// CoPrediction is the joint prediction for several workloads sharing a
// machine — the paper's §8 extension. Each workload keeps its own Amdahl
// scaling, communication and load-balancing behaviour; all of them press on
// the same resource loads, so one workload's contention slows the others.
type CoPrediction struct {
	// Predictions holds one prediction per input workload, in order. Each
	// prediction's Loads map is the combined load of all workloads.
	Predictions []*Prediction
	// Loads is the combined per-resource demand at convergence.
	Loads map[topology.ResourceID]float64
	// WorstOversubscription is the largest combined load/capacity ratio,
	// and WorstResource the resource it occurs on; a value at or below 1
	// means the mix fits the machine.
	WorstOversubscription float64
	WorstResource         topology.ResourceID
	// Iterations and Converged describe the joint refinement loop.
	Iterations int
	Converged  bool
}

// CoScore is the score-only result of a joint solve: the fields of a
// CoPrediction a candidate ranking reads, bit-identical to them, without the
// per-thread vectors and the load map.
type CoScore struct {
	// Speedups holds each input workload's predicted speedup, in order, in
	// the dst slice handed to Score (reallocated only when too short).
	Speedups              []float64
	WorstOversubscription float64
	WorstResource         topology.ResourceID
}

// Score derives the score-only view of a full joint prediction, writing
// the speedups into dst.
func (cp *CoPrediction) Score(dst []float64) CoScore {
	dst = dst[:0]
	for _, p := range cp.Predictions {
		dst = append(dst, p.Speedup)
	}
	return CoScore{Speedups: dst, WorstOversubscription: cp.WorstOversubscription, WorstResource: cp.WorstResource}
}

// PredictCoSchedule jointly predicts several placed workloads (§8: "we
// believe Pandia's prediction of resource consumption as well as overall
// workload performance will let us handle cases with multiple workloads
// sharing a machine"). Placements must not overlap.
func PredictCoSchedule(md *machine.Description, placed []PlacedWorkload, opt Options) (*CoPrediction, error) {
	e, err := newEngine(md, placed)
	if err != nil {
		return nil, err
	}
	return coPrediction(md, e, opt)
}

// coPrediction runs the joint iteration on a bound engine and assembles the
// CoPrediction — the shared tail of PredictCoSchedule and CoPredictor.
func coPrediction(md *machine.Description, e *engine, opt Options) (*CoPrediction, error) {
	iters, converged := e.iterate(opt)
	e.accumulate() // refresh loads at the converged utilisations
	loads := e.loadsMap()

	out := &CoPrediction{
		Loads:      loads,
		Iterations: iters,
		Converged:  converged,
	}
	for _, j := range e.jobs {
		pred, err := j.prediction(iters, converged, loads)
		if err != nil {
			return nil, err
		}
		if invariantChecks.Load() {
			if e.invErr != nil {
				return nil, e.invErr
			}
			if err := CheckInvariants(j.w, md, pred); err != nil {
				return nil, fmt.Errorf("core: workload %q: %w", j.w.Name, err)
			}
		}
		out.Predictions = append(out.Predictions, pred)
	}

	// The same dense scan as CoPredictor.Score, so the two paths agree.
	var kinds [obs.MaxLoadKinds]float64
	worstID, worst := e.loadSummary(&kinds)
	out.WorstOversubscription = worst
	out.WorstResource = worstID
	// The loads are joint, so every constituent prediction reports the same
	// machine-wide worst resource.
	for _, pred := range out.Predictions {
		pred.WorstResource = worstID
		pred.WorstOversubscription = worst
	}
	return out, nil
}

// Slowdown reports how much slower workload i runs co-scheduled than the
// baseline prediction alone on the same placement would be.
func (cp *CoPrediction) Slowdown(md *machine.Description, placed []PlacedWorkload, i int, opt Options) (float64, error) {
	solo, err := Predict(md, placed[i].Workload, placed[i].Placement, opt)
	if err != nil {
		return 0, err
	}
	if solo.Time <= 0 {
		return math.Inf(1), nil
	}
	return cp.Predictions[i].Time / solo.Time, nil
}
