package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pandia/internal/core"
	"pandia/internal/counters"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/simhw"
	"pandia/internal/topology"
)

// The class solver (engine.iterate over thread classes) must reproduce the
// per-thread reference solver kept in reference_test.go bit for bit: every
// speedup, iteration count, per-thread vector, load, worst resource, trace
// event and invariant-check error. These tests and FuzzPredictClasses hold
// it to that on canonical shapes, hand-built non-canonical placements,
// random placements and co-schedules whose jobs share cores.

// classOptionSets are the option sets every comparison runs under.
var classOptionSets = []struct {
	name string
	opt  core.Options
}{
	{"default", core.Options{}},
	{"no-comm", core.Options{DisableComm: true}},
	{"no-burst-no-lb", core.Options{DisableBurstiness: true, DisableLoadBalance: true}},
}

// sameFloat reports bit identity.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameLoads(a, b map[topology.ResourceID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		w, ok := b[id]
		if !ok || !sameFloat(v, w) {
			return false
		}
	}
	return true
}

func sameEvent(a, b obs.Event) bool {
	if a.Kind != b.Kind || a.Job != b.Job || a.Iter != b.Iter || a.Arg != b.Arg ||
		a.Res != b.Res || a.ResIndex != b.ResIndex || a.Span != b.Span ||
		!sameFloat(a.Time, b.Time) || !sameFloat(a.Residual, b.Residual) || !sameFloat(a.Factor, b.Factor) {
		return false
	}
	return sameFloats(a.Loads[:], b.Loads[:])
}

// diffStates names the first field in which two solve outcomes differ, or
// returns "" when they are bit-identical.
func diffStates(got, want *core.SolveState) string {
	switch {
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("iterations %d, want %d", got.Iterations, want.Iterations)
	case got.Converged != want.Converged:
		return fmt.Sprintf("converged %v, want %v", got.Converged, want.Converged)
	case !sameFloats(got.Speedups, want.Speedups):
		return fmt.Sprintf("speedups %v, want %v", got.Speedups, want.Speedups)
	case !sameLoads(got.Loads, want.Loads):
		return "loads differ"
	case got.WorstResource != want.WorstResource || !sameFloat(got.WorstOversubscription, want.WorstOversubscription):
		return fmt.Sprintf("worst %v %g, want %v %g", got.WorstResource, got.WorstOversubscription, want.WorstResource, want.WorstOversubscription)
	case got.InvariantErr != want.InvariantErr:
		return fmt.Sprintf("invariant error %q, want %q", got.InvariantErr, want.InvariantErr)
	case len(got.Events) != len(want.Events):
		return fmt.Sprintf("%d trace events, want %d", len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if !sameEvent(got.Events[i], want.Events[i]) {
			return fmt.Sprintf("trace event %d: %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
	for j := range want.Speedups {
		for _, v := range []struct {
			name      string
			got, want []float64
		}{
			{"slowdowns", got.Slowdowns[j], want.Slowdowns[j]},
			{"resource slowdowns", got.ResourceSlowdowns[j], want.ResourceSlowdowns[j]},
			{"comm penalties", got.CommPenalties[j], want.CommPenalties[j]},
			{"load-balance penalties", got.LoadBalancePenalties[j], want.LoadBalancePenalties[j]},
			{"utilisations", got.Utilizations[j], want.Utilizations[j]},
		} {
			if !sameFloats(v.got, v.want) {
				return fmt.Sprintf("job %d %s %v, want %v", j, v.name, v.got, v.want)
			}
		}
		if fmt.Sprint(got.Bottlenecks[j]) != fmt.Sprint(want.Bottlenecks[j]) {
			return fmt.Sprintf("job %d bottlenecks %v, want %v", j, got.Bottlenecks[j], want.Bottlenecks[j])
		}
	}
	return ""
}

// solvePair solves placed, which must bind, with both solvers; detail also
// traces and turns the runtime invariant checks on. It returns the
// reference outcome, or nil with a message when the two differ.
func solvePair(md *machine.Description, placed []core.PlacedWorkload, opt core.Options, detail bool) (*core.SolveState, string) {
	if detail {
		defer core.SetInvariantChecks(core.SetInvariantChecks(true))
	}
	got, err := core.SolveClasses(md, placed, opt, detail)
	if err != nil {
		return nil, fmt.Sprintf("class solver: %v", err)
	}
	want, err := core.SolveReference(md, placed, opt, detail)
	if err != nil {
		return nil, fmt.Sprintf("reference solver: %v", err)
	}
	if d := diffStates(got, want); d != "" {
		return nil, d
	}
	return want, ""
}

// diffPrediction compares a public single-job prediction with a reference
// outcome.
func diffPrediction(p *core.Prediction, want *core.SolveState) string {
	got := &core.SolveState{
		Iterations:            p.Iterations,
		Converged:             p.Converged,
		Speedups:              []float64{p.Speedup},
		Slowdowns:             [][]float64{p.Slowdowns},
		ResourceSlowdowns:     [][]float64{p.ResourceSlowdowns},
		CommPenalties:         [][]float64{p.CommPenalties},
		LoadBalancePenalties:  [][]float64{p.LoadBalancePenalties},
		Utilizations:          [][]float64{p.Utilizations},
		Bottlenecks:           [][]topology.ResourceKind{p.Bottlenecks},
		Loads:                 p.Loads,
		WorstResource:         p.WorstResource,
		WorstOversubscription: p.WorstOversubscription,
	}
	ref := *want
	ref.Events, ref.InvariantErr = nil, ""
	return diffStates(got, &ref)
}

// diffCoPrediction compares a public joint prediction with a reference
// outcome.
func diffCoPrediction(co *core.CoPrediction, want *core.SolveState) string {
	got := &core.SolveState{
		Iterations:            co.Iterations,
		Converged:             co.Converged,
		Loads:                 co.Loads,
		WorstResource:         co.WorstResource,
		WorstOversubscription: co.WorstOversubscription,
	}
	for _, p := range co.Predictions {
		got.Speedups = append(got.Speedups, p.Speedup)
		got.Slowdowns = append(got.Slowdowns, p.Slowdowns)
		got.ResourceSlowdowns = append(got.ResourceSlowdowns, p.ResourceSlowdowns)
		got.CommPenalties = append(got.CommPenalties, p.CommPenalties)
		got.LoadBalancePenalties = append(got.LoadBalancePenalties, p.LoadBalancePenalties)
		got.Utilizations = append(got.Utilizations, p.Utilizations)
		got.Bottlenecks = append(got.Bottlenecks, p.Bottlenecks)
	}
	ref := *want
	ref.Events, ref.InvariantErr = nil, ""
	return diffStates(got, &ref)
}

// presetModels returns every simulated machine preset, sorted.
func presetModels() []string {
	var models []string
	for m := range simhw.Truths() {
		models = append(models, m)
	}
	sort.Strings(models)
	return models
}

// classShapeSample caps the canonical shapes compared per preset; race and
// short runs take a stride through the sample.
const classShapeSample = 1500

func shapeStride() int {
	if raceEnabled || testing.Short() {
		return 23
	}
	return 1
}

// TestClassSolverMatchesReference compares the class solver with the
// per-thread reference on every preset × every zoo workload × up to 1500
// sampled canonical shapes, under each option set. A stride of the cases
// also goes through the public Predictor (Predict and PredictTime) and
// runs traced with the invariant checks on.
func TestClassSolverMatchesReference(t *testing.T) {
	for _, model := range presetModels() {
		t.Run(model, func(t *testing.T) {
			md, ws := zooOn(t, model)
			topo := md.Topo
			shapes := placement.Sample(placement.Enumerate(topo), classShapeSample, 1)
			places := make([]placement.Placement, len(shapes))
			for i, s := range shapes {
				places[i] = s.Expand(topo)
			}
			stride := shapeStride()
			for _, os := range classOptionSets {
				for wi, w := range ws {
					p, err := core.NewPredictor(md, w, os.opt)
					if err != nil {
						t.Fatal(err)
					}
					for si := wi % stride; si < len(places); si += stride {
						place := places[si]
						detail := (si+wi)%25 == 0
						placed := []core.PlacedWorkload{{Workload: w, Placement: place}}
						want, d := solvePair(md, placed, os.opt, detail)
						if d != "" {
							t.Fatalf("%s %s %s: %s", os.name, w.Name, shapes[si], d)
						}
						tp, err := p.PredictTime(place)
						if err != nil {
							t.Fatal(err)
						}
						if !sameFloat(tp.Speedup, want.Speedups[0]) || tp.Iterations != want.Iterations || tp.Converged != want.Converged {
							t.Fatalf("%s %s %s: PredictTime %+v, want speedup %g in %d iterations", os.name, w.Name, shapes[si], tp, want.Speedups[0], want.Iterations)
						}
						if (si/stride)%7 != 0 {
							continue
						}
						pred, err := p.Predict(place)
						if err != nil {
							t.Fatal(err)
						}
						if d := diffPrediction(pred, want); d != "" {
							t.Fatalf("%s %s %s: Predict: %s", os.name, w.Name, shapes[si], d)
						}
					}
				}
			}
		})
	}
}

// nonCanonical builds hand-made placements a canonical shape never
// produces: threads alternating between sockets, SMT pairs split far apart
// in thread order, a reversed expansion, and seeded random context
// subsets.
func nonCanonical(topo topology.Machine, rng *rand.Rand) map[string]placement.Placement {
	out := map[string]placement.Placement{}
	var inter placement.Placement
	for core := 0; core < topo.CoresPerSocket; core++ {
		for s := 0; s < topo.Sockets; s++ {
			inter = append(inter, topology.Context{Socket: s, Core: core})
		}
	}
	out["interleaved"] = inter
	// Slot 0 of every core on socket 0 ascending, then slot 1 of the even
	// cores descending, so a core's two threads sit far apart in thread
	// order; then single threads on the last socket.
	var split placement.Placement
	for core := 0; core < topo.CoresPerSocket; core++ {
		split = append(split, topology.Context{Socket: 0, Core: core})
	}
	if topo.ThreadsPerCore > 1 {
		for core := topo.CoresPerSocket - 1; core >= 0; core-- {
			if core%2 == 0 {
				split = append(split, topology.Context{Socket: 0, Core: core, Slot: 1})
			}
		}
	}
	if last := topo.Sockets - 1; last > 0 {
		for core := 1; core < topo.CoresPerSocket; core += 3 {
			split = append(split, topology.Context{Socket: last, Core: core})
		}
	}
	out["split-smt"] = split
	full := topo.Contexts()
	rev := make(placement.Placement, len(full))
	for i, c := range full {
		rev[len(full)-1-i] = c
	}
	out["reversed"] = rev
	var mixed placement.Placement
	for i, c := range full {
		if i%3 != 1 {
			mixed = append(mixed, c)
		}
	}
	out["mixed-occupancy"] = mixed
	for k := 0; k < 6; k++ {
		ctxs := topo.Contexts()
		rng.Shuffle(len(ctxs), func(a, b int) { ctxs[a], ctxs[b] = ctxs[b], ctxs[a] })
		n := 1 + rng.Intn(len(ctxs))
		out[fmt.Sprintf("random-%d", k)] = placement.Placement(ctxs[:n])
	}
	return out
}

// TestClassSolverNonCanonical compares the two solvers on the hand-built
// placements of nonCanonical, with every zoo workload on every preset.
func TestClassSolverNonCanonical(t *testing.T) {
	for _, model := range presetModels() {
		t.Run(model, func(t *testing.T) {
			md, ws := zooOn(t, model)
			places := nonCanonical(md.Topo, rand.New(rand.NewSource(3)))
			names := make([]string, 0, len(places))
			for name := range places {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, os := range classOptionSets {
				for wi, w := range ws {
					for pi, name := range names {
						placed := []core.PlacedWorkload{{Workload: w, Placement: places[name]}}
						if _, d := solvePair(md, placed, os.opt, (wi+pi)%4 == 0); d != "" {
							t.Fatalf("%s %s %s: %s", os.name, w.Name, name, d)
						}
					}
				}
			}
		})
	}
}

// TestClassSolverCoSchedules compares the two solvers on seeded mixes of
// zoo jobs whose placements share SMT cores, and checks CoPredictor.Predict,
// CoPredictor.Score and PredictGrouped against the reference.
func TestClassSolverCoSchedules(t *testing.T) {
	mixes := 300
	if raceEnabled || testing.Short() {
		mixes = 40
	}
	for _, model := range presetModels() {
		t.Run(model, func(t *testing.T) {
			md, ws := zooOn(t, model)
			rng := rand.New(rand.NewSource(11))
			sharing := 0
			for _, os := range classOptionSets {
				cp, err := core.NewCoPredictor(md, os.opt)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < mixes; k++ {
					mix, shared := randomMix(rng, md, ws)
					if shared {
						sharing++
					}
					want, d := solvePair(md, mix, os.opt, k%10 == 0)
					if d != "" {
						t.Fatalf("%s mix %d: %s", os.name, k, d)
					}
					co, err := cp.Predict(mix)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffCoPrediction(co, want); d != "" {
						t.Fatalf("%s mix %d: CoPredictor.Predict: %s", os.name, k, d)
					}
					sc, err := cp.Score(mix, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !sameFloats(sc.Speedups, want.Speedups) || sc.WorstResource != want.WorstResource || !sameFloat(sc.WorstOversubscription, want.WorstOversubscription) {
						t.Fatalf("%s mix %d: Score %+v, want speedups %v", os.name, k, sc, want.Speedups)
					}
					if k%5 != 0 {
						continue
					}
					g, err := core.PredictGrouped(md, mix, os.opt)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffCoPrediction(g.Joint, want); d != "" {
						t.Fatalf("%s mix %d: PredictGrouped: %s", os.name, k, d)
					}
				}
			}
			if sharing == 0 {
				t.Fatal("no mix shared a core; the shared-core classes went untested")
			}
		})
	}
}

// fuzzReader hands out bytes of a fuzz input, zeros once exhausted.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// unit maps a byte to [0, 1].
func (r *fuzzReader) unit() float64 { return float64(r.next()) / 255 }

// machine decodes a topology of at most 4 sockets of 4 cores of 3 contexts,
// a flags byte (see fuzzOptions; bit 32 and up are the caller's), and a
// machine description, which may be invalid.
func (r *fuzzReader) machine() (*machine.Description, byte) {
	topo := topology.Machine{
		Name:           "fuzz",
		Sockets:        1 + int(r.next())%4,
		CoresPerSocket: 1 + int(r.next())%4,
		ThreadsPerCore: 1 + int(r.next())%3,
	}
	flags := r.next()
	// A zero cache capacity leaves that level unconstrained.
	capacity := func(scale float64) float64 {
		if v := r.next(); v%8 != 0 {
			return scale * float64(v) / 64
		}
		return 0
	}
	return &machine.Description{
		Topo:          topo,
		CorePeakInstr: 0.5 + 10*r.unit(),
		SMTFactor:     1 + r.unit(),
		L1BW:          capacity(200), L2BW: capacity(90), L3LinkBW: capacity(60),
		L3AggBW: capacity(300), DRAMBW: 0.5 + 50*r.unit(), InterconnectBW: 0.5 + 60*r.unit(),
	}, flags
}

// workload decodes a workload whose inter-socket overhead is at most
// maxOverhead; it may be invalid.
func (r *fuzzReader) workload(name string, maxOverhead float64) *core.Workload {
	return &core.Workload{
		Name: name,
		T1:   1 + 100*r.unit(),
		Demand: counters.Rates{
			Instr: 12 * r.unit(), L1: 300 * r.unit(), L2: 120 * r.unit(),
			L3: 60 * r.unit(), DRAM: 40 * r.unit(),
		},
		ParallelFrac:        r.unit(),
		InterSocketOverhead: maxOverhead * r.unit(),
		LoadBalance:         r.unit(),
		Burstiness:          r.unit(),
	}
}

// fuzzOptions maps the low five flag bits to the ablation switches and a
// short, dampened iteration cap.
func fuzzOptions(flags byte) core.Options {
	opt := core.Options{
		DisableComm:        flags&1 != 0,
		DisableBurstiness:  flags&2 != 0,
		DisableLoadBalance: flags&4 != 0,
	}
	if flags&16 != 0 {
		// Few iterations before dampening, and a cap, so dampened and
		// unconverged solves are covered too.
		opt.DampenAfter, opt.MaxIterations = 2, 6
	}
	if flags&8 != 0 {
		opt.MaxIterations = 1 // a single pass
	}
	return opt
}

// FuzzPredictClasses decodes a small topology and machine description,
// one to three random workloads on disjoint random placements (sharing
// cores when the contexts fall that way) and an option set, then checks
// the class solver against the per-thread reference, traced and with the
// invariant checks on for half the inputs.
func FuzzPredictClasses(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0, 40, 90, 120, 200, 30, 60, 7, 5, 99, 150, 3, 12, 200, 4, 9})
	f.Add([]byte{3, 2, 1, 1, 255, 10, 200, 30, 0, 60, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 3, 7, 128, 128, 128, 128, 128, 128, 128, 128, 77, 200, 180, 160, 140, 120, 100, 80, 60, 40, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		md, flags := r.machine()
		if md.Validate() != nil {
			return
		}
		topo := md.Topo
		ctxs := topo.Contexts()
		rng := rand.New(rand.NewSource(int64(r.next())<<8 | int64(r.next())))
		rng.Shuffle(len(ctxs), func(a, b int) { ctxs[a], ctxs[b] = ctxs[b], ctxs[a] })
		jobs := 1 + int(r.next())%3
		var placed []core.PlacedWorkload
		for k := 0; k < jobs && len(ctxs) > 0; k++ {
			w := r.workload(fmt.Sprintf("w%d", k), 0.1)
			if w.Validate() != nil {
				return
			}
			n := 1 + int(r.next())%len(ctxs)
			placed = append(placed, core.PlacedWorkload{Workload: w, Placement: placement.Placement(ctxs[:n:n])})
			ctxs = ctxs[n:]
		}
		opt := fuzzOptions(flags)
		if _, d := solvePair(md, placed, opt, flags&32 != 0); d != "" {
			t.Fatalf("topology %+v, %d jobs, options %+v: %s", topo, len(placed), opt, d)
		}
	})
}
