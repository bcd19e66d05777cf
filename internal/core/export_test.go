package core

import "pandia/internal/placement"

// SpeedupBound exposes the sweep's dominance bound to the external tests.
func (p *Predictor) SpeedupBound(place placement.Placement) float64 { return p.speedupBound(place) }

// BoundSlack is the relative widening of the dominance bound.
const BoundSlack = boundSlack
