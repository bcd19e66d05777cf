// Package pandia is the public API of this reproduction of "Pandia:
// comprehensive contention-sensitive thread placement" (EuroSys 2017).
//
// Pandia predicts the performance of an in-memory parallel workload across
// thread counts and thread placements on a multi-socket machine, from a
// machine description (measured once per machine with stress applications,
// §3 of the paper), a workload description (measured with six profiling
// runs, §4), and an iterative contention/communication/load-balance model
// (§5).
//
// Because Go exposes neither hardware performance counters nor thread
// pinning, the hardware substrate here is a simulated testbed
// (internal/simhw) modelling the paper's Intel Xeon machines; every Pandia
// component observes it exactly as it would observe real hardware — through
// run times and counter values. See DESIGN.md for the substitution
// rationale.
//
// Typical use:
//
//	sys, _ := pandia.NewSystem("x5-2")
//	bench, _ := pandia.BenchmarkByName("MD")
//	prof, _ := sys.Profile(bench.Truth)
//	rec, _ := sys.Recommend(&prof.Workload, 0.95)
//	fmt.Println(rec.Best, rec.BestPrediction.Speedup)
package pandia

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pandia/internal/bench"
	"pandia/internal/core"
	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/simhw"
	"pandia/internal/topology"
	"pandia/internal/workload"
)

// Re-exported types forming the public surface.
type (
	// MachineDescription is Pandia's measured model of one machine (§3).
	MachineDescription = machine.Description
	// WorkloadDescription is Pandia's model of one workload (§4).
	WorkloadDescription = core.Workload
	// Prediction is the output of the performance predictor (§5).
	Prediction = core.Prediction
	// PredictOptions tunes the predictor; the zero value is the paper's
	// configuration.
	PredictOptions = core.Options
	// Placement assigns workload threads to hardware contexts.
	Placement = placement.Placement
	// Shape is a canonical placement (per-socket core occupancies).
	Shape = placement.Shape
	// Machine is the topology of a machine.
	Machine = topology.Machine
	// Context identifies one hardware thread context.
	Context = topology.Context
	// WorkloadSpec is a synthetic workload's ground-truth behaviour on the
	// simulated testbed (the stand-in for a real binary).
	WorkloadSpec = simhw.WorkloadTruth
	// Benchmark is one entry of the paper's 22-workload evaluation zoo.
	Benchmark = bench.Entry
	// Profile is the outcome of the six profiling runs.
	Profile = workload.Profile
	// PlacedWorkload pairs a workload description with a placement, for
	// joint co-scheduling prediction.
	PlacedWorkload = core.PlacedWorkload
	// CoPrediction is the joint prediction for co-scheduled workloads.
	CoPrediction = core.CoPrediction
	// Predictor is a reusable, allocation-free prediction pipeline for one
	// workload on one machine (validate once, predict many placements).
	Predictor = core.Predictor
	// TimePrediction is the fast path's value-typed result: time and
	// speedup without the per-thread detail vectors.
	TimePrediction = core.TimePrediction
	// SweepStats is a pruned sweep's evaluated/pruned split.
	SweepStats = core.SweepStats
)

// Models lists the available simulated machines: the paper's evaluation
// platforms plus the worked-example toy.
func Models() []string {
	var out []string
	for k := range simhw.Truths() {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Benchmarks returns the paper's 22-workload evaluation zoo.
func Benchmarks() []Benchmark { return bench.Zoo() }

// AllBenchmarks returns the zoo plus the special cases (equake,
// NPO-single).
func AllBenchmarks() []Benchmark { return bench.All() }

// BenchmarkByName looks up a zoo workload by its paper name.
func BenchmarkByName(name string) (Benchmark, error) { return bench.ByName(name) }

// System binds a simulated machine to its measured description: the handle
// through which workloads are profiled, predicted, and (on the testbed)
// actually run.
type System struct {
	tb *simhw.Testbed
	md *machine.Description

	// space is Recommend's placement space, built by its first call. The
	// shapes and placements are never handed out, so they stay immutable.
	space struct {
		once   sync.Once
		shapes []Shape
		places []Placement
	}
}

// NewSystem builds a system for one of the preset machine models
// (see Models): the testbed is created and its machine description measured
// with the stress applications.
func NewSystem(model string) (*System, error) {
	truth, ok := simhw.Truths()[model]
	if !ok {
		return nil, fmt.Errorf("pandia: unknown machine model %q (have %v)", model, Models())
	}
	return NewSystemFromTruth(truth)
}

// NewSystemFromFile builds a system from a machine-truth JSON file (see
// simhw.SaveTruth for the format), letting users define custom simulated
// machines.
func NewSystemFromFile(path string) (*System, error) {
	truth, err := simhw.LoadTruth(path)
	if err != nil {
		return nil, err
	}
	return NewSystemFromTruth(truth)
}

// NewSystemFromTruth builds a system for a custom simulated machine.
func NewSystemFromTruth(truth simhw.MachineTruth) (*System, error) {
	tb, err := simhw.NewTestbed(truth)
	if err != nil {
		return nil, err
	}
	md, err := machine.Describe(tb)
	if err != nil {
		return nil, err
	}
	return &System{tb: tb, md: md}, nil
}

// Machine returns the system's topology.
func (s *System) Machine() Machine { return s.tb.Machine() }

// Description returns the measured machine description.
func (s *System) Description() *MachineDescription { return s.md }

// Testbed exposes the underlying simulated hardware for measurement
// (ground-truth runs); prediction code never needs it.
func (s *System) Testbed() *simhw.Testbed { return s.tb }

// Profile runs the six profiling runs of §4 for the workload and returns
// its description plus the run records.
func (s *System) Profile(spec WorkloadSpec) (*Profile, error) {
	return (&workload.Profiler{TB: s.tb, MD: s.md}).Profile(spec)
}

// Predict predicts the workload's performance for one placement (§5).
func (s *System) Predict(w *WorkloadDescription, p Placement, opt PredictOptions) (*Prediction, error) {
	return core.Predict(s.md, w, p, opt)
}

// PredictShape predicts the workload's performance for a canonical shape.
func (s *System) PredictShape(w *WorkloadDescription, shape Shape, opt PredictOptions) (*Prediction, error) {
	if err := shape.Validate(s.tb.Machine()); err != nil {
		return nil, err
	}
	return core.Predict(s.md, w, shape.Expand(s.tb.Machine()), opt)
}

// NewPredictor builds a reusable predictor for the workload on this system:
// inputs are validated once, and every subsequent Predict or PredictTime
// call reuses the engine's scratch. PredictTime performs zero heap
// allocations in the steady state, which is what makes sweeping thousands
// of candidate placements cheap (§6.3).
func (s *System) NewPredictor(w *WorkloadDescription, opt PredictOptions) (*Predictor, error) {
	return core.NewPredictor(s.md, w, opt)
}

// PredictSweep predicts every placement on the fast path with per-worker
// pooled predictors, returning results aligned with places.
func (s *System) PredictSweep(w *WorkloadDescription, places []Placement, opt PredictOptions) ([]TimePrediction, error) {
	return core.PredictSweep(s.md, w, places, opt)
}

// PredictCoSchedule jointly predicts several workloads sharing the machine
// (the paper's §8 extension): each keeps its own scaling and
// synchronisation behaviour while all press on the same resource loads.
func (s *System) PredictCoSchedule(jobs []PlacedWorkload, opt PredictOptions) (*CoPrediction, error) {
	return core.PredictCoSchedule(s.md, jobs, opt)
}

// Measure executes the workload on the testbed with the given placement and
// returns the measured time (the ground truth a real deployment would
// observe).
func (s *System) Measure(spec WorkloadSpec, p Placement) (float64, error) {
	res, err := s.tb.Run(simhw.RunConfig{Workload: spec, Placement: p})
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// Shapes enumerates the machine's canonical placement space, optionally
// sampled down to at most maxShapes (0 = exhaustive).
func (s *System) Shapes(maxShapes int) []Shape {
	shapes := placement.Enumerate(s.tb.Machine())
	if maxShapes > 0 {
		shapes = placement.Sample(shapes, maxShapes, 1)
	}
	return shapes
}

// recommendShapes caps Recommend's placement space on large machines.
const recommendShapes = 4000

// recommendSpace returns Recommend's placement space, Shapes(4000) and its
// expansions, building it on the first call. The shapes are copied out of
// the full enumeration so that the space holds no more than it uses, and
// the placements are windows of one context slab.
func (s *System) recommendSpace() ([]Shape, []Placement) {
	s.space.once.Do(func() {
		s.space.shapes = placement.CloneShapes(s.Shapes(recommendShapes))
		s.space.places = placement.ExpandAll(s.space.shapes)
	})
	return s.space.shapes, s.space.places
}

// Recommendation is the output of Recommend: the placement predicted
// fastest, and the smallest placement predicted to reach the target
// fraction of that performance — the paper's resource-saving use case
// ("limiting a workload to a small number of cores when its scaling is
// poor", §1).
type Recommendation struct {
	// Best is the fastest predicted placement.
	Best Shape
	// BestPrediction is its prediction.
	BestPrediction *Prediction
	// Minimal is the placement using the fewest hardware contexts (ties:
	// fewest cores, then sockets) whose predicted speedup is at least
	// TargetFraction of the best.
	Minimal Shape
	// MinimalPrediction is its prediction.
	MinimalPrediction *Prediction
	// TargetFraction echoes the requested fraction.
	TargetFraction float64
	// Sweep reports how much of the placement space the dominance bound let
	// the search skip (DESIGN.md §12). Pruning never changes the selected
	// shapes: a pruned placement's speedup is provably below the target.
	Sweep SweepStats
}

// Recommend searches the canonical placement space (sampled to at most
// 4000 shapes on large machines) for the fastest predicted placement and
// the minimal placement achieving targetFraction of its performance.
// targetFraction 0 defaults to 0.95; a non-finite one is an error. The
// space is built once per System; the returned shapes are the caller's own.
func (s *System) Recommend(w *WorkloadDescription, targetFraction float64) (*Recommendation, error) {
	if math.IsNaN(targetFraction) || math.IsInf(targetFraction, 0) {
		return nil, fmt.Errorf("pandia: target fraction %g is not finite", targetFraction)
	}
	if targetFraction <= 0 {
		targetFraction = 0.95
	}
	if targetFraction > 1 {
		return nil, fmt.Errorf("pandia: target fraction %g above 1", targetFraction)
	}
	shapes, places := s.recommendSpace()

	// Sweep on the fast path (speedups only), pruning placements whose
	// dominance bound cannot reach targetFraction of the incumbent best,
	// then run the full-detail prediction just for the two winning shapes.
	// PredictTime's Speedup is bit-identical to Predict's and pruned
	// placements provably miss both the argmax and the target cut, so the
	// selection is unchanged.
	times, sweep, err := core.PredictSweepPruned(s.md, w, places, core.Options{}, targetFraction)
	if err != nil {
		return nil, err
	}

	rec := &Recommendation{TargetFraction: targetFraction, Sweep: sweep}
	best := math.Inf(-1)
	bestIdx := -1
	for i := range shapes {
		if times[i].Speedup > best {
			best = times[i].Speedup
			bestIdx = i
		}
	}
	target := best * targetFraction
	bestCost := [3]int{1 << 30, 1 << 30, 1 << 30}
	minIdx := -1
	for i, shape := range shapes {
		if times[i].Speedup < target {
			continue
		}
		cost := [3]int{shape.Threads(), shape.Cores(), shape.SocketsUsed()}
		if less3(cost, bestCost) {
			bestCost = cost
			minIdx = i
		}
	}
	if bestIdx >= 0 {
		rec.Best = shapes[bestIdx].Clone()
		if rec.BestPrediction, err = core.Predict(s.md, w, places[bestIdx], core.Options{}); err != nil {
			return nil, err
		}
	}
	if minIdx >= 0 {
		rec.Minimal = shapes[minIdx].Clone()
		if rec.MinimalPrediction, err = core.Predict(s.md, w, places[minIdx], core.Options{}); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

func less3(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// LoadWorkloadDescription reads a workload description from a JSON file
// written by WorkloadDescription.Save.
func LoadWorkloadDescription(path string) (*WorkloadDescription, error) {
	return core.LoadWorkload(path)
}

// ParseShape parses the CLI shape syntax, e.g. "2x2+3x1/4x1".
func ParseShape(s string) (Shape, error) { return placement.ParseShape(s) }

// FormatShape renders a shape in ParseShape's syntax.
func FormatShape(s Shape) string { return placement.FormatShape(s) }
