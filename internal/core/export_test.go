package core

import (
	"pandia/internal/machine"
	"pandia/internal/placement"
)

// SpeedupBound exposes the sweep's dominance bound to the external tests.
func (p *Predictor) SpeedupBound(place placement.Placement) float64 { return p.speedupBound(place) }

// BoundSlack is the relative widening of the dominance bound.
const BoundSlack = boundSlack

// PredictSweepN exposes the sweep with an explicit worker count.
func PredictSweepN(md *machine.Description, w *Workload, places []placement.Placement, opt Options, frac float64, workers int) ([]TimePrediction, SweepStats, error) {
	return predictSweepN(md, w, places, opt, frac, workers)
}
