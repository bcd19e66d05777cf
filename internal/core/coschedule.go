package core

import (
	"fmt"
	"math"

	"pandia/internal/machine"
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
	cp, err := NewCoPredictor(md, opt)
	if err != nil {
		return nil, err
	}
	return cp.Predict(placed)
}

// Slowdown reports how much slower workload i runs co-scheduled than the
// baseline prediction alone on the same placement would be. placed must be
// the co-schedule cp predicts, one entry per prediction.
func (cp *CoPrediction) Slowdown(md *machine.Description, placed []PlacedWorkload, i int, opt Options) (float64, error) {
	if len(placed) != len(cp.Predictions) {
		return 0, fmt.Errorf("core: slowdown over %d placed workloads, prediction has %d", len(placed), len(cp.Predictions))
	}
	if i < 0 || i >= len(placed) {
		return 0, fmt.Errorf("core: slowdown of workload %d out of range [0, %d)", i, len(placed))
	}
	solo, err := Predict(md, placed[i].Workload, placed[i].Placement, opt)
	if err != nil {
		return 0, err
	}
	if solo.Time <= 0 {
		return math.Inf(1), nil
	}
	return cp.Predictions[i].Time / solo.Time, nil
}
