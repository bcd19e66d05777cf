package simhw

import (
	"math"
	"slices"

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

	// slow memoises, per iteration, each resource's slowdown on the
	// proportional-sharing path, where it depends on the resource alone.
	// NaN marks "not yet computed"; 0 marks a heterogeneous resource whose
	// slowdown is water-filled per demand from theta and wfScale.
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

func (t *resTable) reset() {
	for i := range t.total {
		t.total[i] = 0
		t.minD[i] = math.Inf(1)
		t.maxD[i] = 0
		t.count[i] = 0
		t.stress[i] = 0
		t.slow[i] = math.NaN()
	}
}

func (t *resTable) add(idx int, d float64, isWorkload bool) {
	if d <= 0 {
		return
	}
	t.total[idx] += d
	if d < t.minD[idx] {
		t.minD[idx] = d
	}
	if d > t.maxD[idx] {
		t.maxD[idx] = d
	}
	t.count[idx]++
	if !isWorkload {
		t.stress[idx]++
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

// slowdown returns the contention slowdown that a user offering demand d > 0
// experiences on resource idx, applying water-filling when the user
// population is heterogeneous. The first call per resource and iteration
// classifies the resource; later calls read the memo.
func (t *resTable) slowdown(idx int, d, q float64, dw *demandWalk) float64 {
	s := t.slow[idx]
	if math.IsNaN(s) {
		s = t.classify(idx, q, dw)
	}
	if s != 0 {
		return s
	}
	alloc := math.Min(d, t.theta[idx])
	slow := safeDiv(d, alloc, 1)
	if slow < 1 {
		slow = 1
	}
	return slow * t.wfScale[idx]
}

// classify computes resource idx's memo entry for this iteration: its
// proportional-sharing slowdown, or 0 with theta and wfScale set when a
// foreign program (stress application) shares the oversubscribed resource
// with demand unlike the others'.
func (t *resTable) classify(idx int, q float64, dw *demandWalk) float64 {
	s := 1.0
	if c := t.capacity[idx]; c > 0 {
		u := t.total[idx] / c
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
	return s
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

// satWeight is the ramp used by the queueing excess in phi.
func satWeight(u float64) float64 {
	sat := (u - 0.8) / 0.4
	if sat < 0 {
		return 0
	}
	if sat > 1 {
		return 1
	}
	return sat * sat
}
