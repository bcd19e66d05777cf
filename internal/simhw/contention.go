package simhw

import (
	"math"
	"slices"

	"pandia/internal/replay"
	"pandia/internal/topology"
)

// resTable indexes every contended resource of the machine densely and
// accumulates, per fixed-point iteration, the total offered load plus enough
// shape information (count, min, max) to decide between the cheap
// proportional-sharing slowdown and exact max-min water-filling.
//
// Resources share max-min fair: demanders below their fair share are
// unaffected; the remainder splits among the heavy demanders. When every
// user offers the same demand (the common case: a homogeneous workload),
// max-min degenerates to the proportional total/capacity factor, which is
// also what Pandia's own model assumes (§5.1). The regimes differ only for
// asymmetric co-location, e.g. a saturating stress application beside a
// lightly-demanding workload thread.
type resTable struct {
	topo   topology.Machine
	nCores int
	nSock  int
	nPairs int

	// capacity is each resource's capacity for the current run (0 means
	// absent/unlimited); it depends only on the run's core occupancy and
	// clock, so setCapacities fills it once per run.
	capacity []float64

	total []float64
	minD  []float64
	maxD  []float64
	count []int
	// stress counts users that do not belong to the measured workload
	// (stress applications). Max-min water-filling only engages when such
	// foreign users share the resource: the measured workload's own
	// threads are homogeneous by assumption (§2.3) and share
	// proportionally, exactly as Pandia's model assumes.
	stress []int

	// slow holds, per iteration, each listed resource's slowdown on the
	// proportional-sharing path, where it depends on the resource alone;
	// 0 marks a heterogeneous resource whose slowdown is water-filled per
	// demand from theta and wfScale.
	slow []float64
	// theta is the per-resource water-filling level and wfScale the
	// queueing factor applied on top of it, both valid where slow is 0.
	theta   []float64
	wfScale []float64
}

func newResTable(topo topology.Machine) resTable {
	t := resTable{
		topo:   topo,
		nCores: topo.TotalCores(),
		nSock:  topo.Sockets,
		nPairs: topo.NumSocketPairs(),
	}
	n := t.size()
	t.capacity = make([]float64, n)
	t.total = make([]float64, n)
	t.minD = make([]float64, n)
	t.maxD = make([]float64, n)
	t.count = make([]int, n)
	t.stress = make([]int, n)
	t.slow = make([]float64, n)
	t.theta = make([]float64, n)
	t.wfScale = make([]float64, n)
	return t
}

func (t *resTable) size() int { return 4*t.nCores + 2*t.nSock + t.nPairs }

// Dense index layout: instruction issue, L1, L2, L3 link (per core), then
// L3 aggregate and DRAM (per socket), then interconnect (per pair).
func (t *resTable) instrIdx(core int) int  { return core }
func (t *resTable) l1Idx(core int) int     { return t.nCores + core }
func (t *resTable) l2Idx(core int) int     { return 2*t.nCores + core }
func (t *resTable) l3LinkIdx(core int) int { return 3*t.nCores + core }
func (t *resTable) l3AggIdx(sock int) int  { return 4*t.nCores + sock }
func (t *resTable) dramIdx(sock int) int   { return 4*t.nCores + t.nSock + sock }
func (t *resTable) icIdx(a, b int) int     { return 4*t.nCores + 2*t.nSock + t.topo.PairIndex(a, b) }

// countUsers sets the user and stressor counts of the run's resources
// from the pairs' copies, once per run. The per-agent reference counts
// only pairs offering demand, yet these counts classify alike at every
// iteration. A stressor pays no communication or load-balancing penalty,
// so its utilisation stays at its initial 1 and its pairs always offer
// demand: the stressor count never changes. A workload pair that offers
// none can lower the user count, but to one user or none only when at
// most one positive demand is left, whose extremes classify finds equal
// (for finite demands) and so homogeneous either way. The table outlives
// the run in the pool, so every listed resource is zeroed first: classify
// would read a stale stressor count as a foreign user.
//
//pandia:noalloc
func (t *resTable) countUsers(dw *demandWalk, cls []class) {
	for _, i := range dw.res {
		t.count[i] = 0
		t.stress[i] = 0
	}
	for k := range cls {
		idx, _, m := dw.of(k)
		for p := range idx {
			t.count[idx[p]] += m[p]
			if !cls[k].workload {
				t.stress[idx[p]] += m[p]
			}
		}
	}
}

// reset clears the listed resources' totals for a new iteration and, in a
// run with stressors, their extremes where a stressor shares them, the
// only place classify reads them; a resource off every class's path keeps
// stale state that no pass reads.
func (t *resTable) reset(idx []int, stressed bool) {
	for _, i := range idx {
		t.total[i] = 0
	}
	if !stressed {
		return
	}
	for _, i := range idx {
		if t.stress[i] > 0 {
			t.minD[i] = math.Inf(1)
			t.maxD[i] = 0
		}
	}
}

// note widens resource idx's demand extremes by a user offering demand d,
// on a resource a stressor shares. The total is summed apart, since its
// order of addition matters.
func (t *resTable) note(idx int, d float64) {
	if d <= 0 || t.stress[idx] == 0 {
		return
	}
	if d < t.minD[idx] {
		t.minD[idx] = d
	}
	if d > t.maxD[idx] {
		t.maxD[idx] = d
	}
}

// add adds m users' demand d to resource idx's total, one user at a time.
func (t *resTable) add(idx int, d float64, m int) {
	if d <= 0 {
		return
	}
	for ; m > 0; m-- {
		t.total[idx] += d
	}
}

// sumShared sets the shared resources' totals (L3 aggregate, DRAM,
// interconnect) from the runs, in one replay of the runs (replay.Sum) per
// replay.Width shared resources of the run, rather than one per pair.
//
//pandia:noalloc
func (t *resTable) sumShared(dw *demandWalk, nCls int, runs []replay.Run) {
	for base := 0; base < len(dw.sharedRes); base += replay.Width {
		dw.addends(base, nCls)
		var acc [replay.Width]float64
		replay.Sum(&acc, dw.addend, runs)
		for i, r := range dw.sharedRes[base:min(base+replay.Width, len(dw.sharedRes))] {
			t.total[r] = acc[i]
		}
	}
}

// setCapacities fills the run's resource capacities. coreOcc supplies
// per-core active-context counts for the SMT aggregate instruction limit;
// freqScale supplies each socket's clock relative to the reference point —
// core-side resources (instruction issue, private cache links) track the
// clock, while the shared cache, DRAM and interconnect do not.
func (t *resTable) setCapacities(mt *MachineTruth, coreOcc []int, freqScale []float64) {
	for core := 0; core < t.nCores; core++ {
		fs := freqScale[core/t.topo.CoresPerSocket]
		c := mt.CoreInstrRate * fs
		if coreOcc[core] > 1 {
			c *= mt.SMTAggFactor
		}
		t.capacity[t.instrIdx(core)] = c
		t.capacity[t.l1Idx(core)] = mt.L1BW * fs
		t.capacity[t.l2Idx(core)] = mt.L2BW * fs
		t.capacity[t.l3LinkIdx(core)] = mt.L3LinkBW * fs
	}
	for s := 0; s < t.nSock; s++ {
		t.capacity[t.l3AggIdx(s)] = mt.L3AggBW
		t.capacity[t.dramIdx(s)] = mt.DRAMBW
	}
	for i := 4*t.nCores + 2*t.nSock; i < len(t.capacity); i++ {
		t.capacity[i] = mt.InterconnectBW
	}
}

// waterfilled returns the contention slowdown that a user offering demand
// d >= 0 experiences on a resource classify water-filled (slow is 0):
// its max-min fair share of d, with the resource's queueing factor.
func (t *resTable) waterfilled(idx int, d float64) float64 {
	alloc := math.Min(d, t.theta[idx])
	slow := safeDiv(d, alloc, 1)
	if slow < 1 {
		slow = 1
	}
	return slow * t.wfScale[idx]
}

// classify sets resource idx's slowdown for this iteration: its
// proportional-sharing slowdown, or 0 with theta and wfScale set when a
// foreign program (stress application) shares the oversubscribed resource
// with demand unlike the others'. It returns the utilisation total/capacity
// it classified, 0 for a resource without capacity (never contended).
func (t *resTable) classify(idx int, q float64, dw *demandWalk) (u float64) {
	s := 1.0
	if c := t.capacity[idx]; c > 0 {
		u = t.total[idx] / c
		homogeneous := u <= 1 || t.count[idx] <= 1 || t.stress[idx] == 0 ||
			t.maxD[idx]-t.minD[idx] <= 1e-9*t.maxD[idx]
		if homogeneous {
			s = phi(u, q)
		} else {
			s = 0
			t.theta[idx] = waterfill(dw.demandsOf(idx), c)
			t.wfScale[idx] = 1 + q*satWeight(u)
		}
	}
	t.slow[idx] = s
	return u
}

// waterfill computes the max-min fair share level theta such that
// sum(min(d_i, theta)) = c, assuming sum(d) > c. It sorts demands in place.
func waterfill(demands []float64, c float64) float64 {
	slices.Sort(demands)
	remaining := c
	k := len(demands)
	for _, d := range demands {
		if d*float64(k) <= remaining {
			remaining -= d
			k--
			continue
		}
		// k > 0 here: k == 0 would make d*float64(k) == 0 <= remaining and
		// take the continue branch above. The fallback is never used.
		return safeDiv(remaining, float64(k), c)
	}
	// All demands fit; unreachable when oversubscribed, but return a level
	// that leaves everyone unthrottled for safety.
	if len(demands) == 0 {
		return c
	}
	return demands[len(demands)-1]
}

// satStart is the utilisation where the queueing ramp begins.
const satStart = 0.8

// coldUtil is the saturation screen's threshold: a resource whose
// first-iteration utilisation is at most coldUtil is cold, its slowdown
// exactly 1 at every later iteration (DESIGN.md §8). The relative margin
// of 1e-9 below satStart covers the few ulps by which a later utilisation
// can exceed the first one.
const coldUtil = satStart * (1 - 1e-9)

// satWeight is the ramp used by the queueing excess in phi.
func satWeight(u float64) float64 {
	sat := (u - satStart) / 0.4
	if sat < 0 {
		return 0
	}
	if sat > 1 {
		return 1
	}
	return sat * sat
}
