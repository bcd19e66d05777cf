package simhw

import (
	"math/rand"

	"pandia/internal/topology"
)

// runScratch is the working memory of one Testbed.Run, sized once for the
// machine and recycled through Testbed.scratch, so a steady-state run
// allocates only the ThreadRates it returns. Every field is reset by the
// run stage that fills it; nothing carries over between runs.
type runScratch struct {
	table   resTable
	demands demandWalk

	// classes holds the run's thread classes (capacity: the machine's
	// context count), classOf maps each agent — placed threads first, then
	// stressors — to its class, and runs is the agent order as maximal
	// stretches of consecutive agents in one class. classKey maps a
	// (socket, active, core occupancy) key to its class this run, -1 when
	// unused.
	classes  []class
	classOf  []int32
	runs     []run
	classKey []int32

	occupied []bool // by topology.ContextIndex: context taken this run

	// Memory placement: memOn flags the sockets holding the workload's
	// pages and memSockets lists them in ascending order.
	memOn      []bool
	memSockets []int

	// Per socket: active cores, clock scale, cache pressure, DRAM spill
	// multiplier and the communication penalty of a workload thread there.
	activeCores []int
	freqScale   []float64
	pressure    []float64
	dramMult    []float64
	commPen     []float64

	// Per core: active-core flags for the turbo count, active-agent
	// occupancy, stressor presence, and the agents placed there
	// (coreAgents holds ThreadsPerCore slots per core, coreCount of them
	// in use, in agent order).
	coreActive []bool
	coreOcc    []int
	stressed   []bool
	coreAgents []int
	coreCount  []int
	slots      int

	// Measurement noise: rng draws from src, which noiseZ re-seeds per
	// run.
	src NoiseSource
	rng *rand.Rand
}

func newRunScratch(topo topology.Machine) *runScratch {
	nCtx := topo.TotalContexts()
	nCores := topo.TotalCores()
	nSock := topo.Sockets
	table := newResTable(topo)
	s := &runScratch{
		table:       table,
		demands:     newDemandWalk(nCtx, nSock, table.size()),
		classes:     make([]class, 0, nCtx),
		classOf:     make([]int32, nCtx),
		runs:        make([]run, 0, nCtx),
		classKey:    make([]int32, nSock*2*(topo.ThreadsPerCore+1)),
		occupied:    make([]bool, nCtx),
		memOn:       make([]bool, nSock),
		memSockets:  make([]int, 0, nSock),
		activeCores: make([]int, nSock),
		freqScale:   make([]float64, nSock),
		pressure:    make([]float64, nSock),
		dramMult:    make([]float64, nSock),
		commPen:     make([]float64, nSock),
		coreActive:  make([]bool, nCores),
		coreOcc:     make([]int, nCores),
		stressed:    make([]bool, nCores),
		coreAgents:  make([]int, nCtx),
		coreCount:   make([]int, nCores),
		slots:       topo.ThreadsPerCore,
	}
	s.rng = rand.New(&s.src)
	for i := range s.classKey {
		s.classKey[i] = -1
	}
	return s
}

// getScratch borrows run scratch from the pool, building it on a miss.
func (tb *Testbed) getScratch() *runScratch {
	if s, ok := tb.scratch.Get().(*runScratch); ok {
		return s
	}
	return newRunScratch(tb.truth.Topo)
}

// markCoreActive counts c's core toward its socket's active-core total,
// once per core.
func (s *runScratch) markCoreActive(topo topology.Machine, c topology.Context) {
	if g := topo.GlobalCore(c); !s.coreActive[g] {
		s.coreActive[g] = true
		s.activeCores[c.Socket]++
	}
}

// occupy records each agent on its core, in agent order, and counts the
// active agents per core; stressors come after the placed threads and
// mark their cores as stressed.
func (s *runScratch) occupy(topo topology.Machine, cfg *RunConfig, nAct int) {
	clear(s.coreOcc)
	clear(s.coreCount)
	clear(s.stressed)
	for i, c := range cfg.Placement {
		g := topo.GlobalCore(c)
		if i < nAct {
			s.coreOcc[g]++
		}
		s.indexAgent(g, i)
	}
	n := len(cfg.Placement)
	for j := range cfg.Stressors {
		g := topo.GlobalCore(cfg.Stressors[j].Ctx)
		s.coreOcc[g]++
		s.stressed[g] = true
		s.indexAgent(g, n+j)
	}
}

// indexAgent appends agent i to core g's agent list.
func (s *runScratch) indexAgent(g, i int) {
	s.coreAgents[g*s.slots+s.coreCount[g]] = i
	s.coreCount[g]++
}

// newClass appends a class represented by agent i at ctx. Active classes
// offer their truth's demand at the socket's clock; perCore is the number
// of the class's active agents on each of its cores.
func (s *runScratch) newClass(topo topology.Machine, i int, ctx topology.Context, truth *WorkloadTruth, fInit float64, isWorkload, active bool, perCore int) int32 {
	c := class{
		ctx: ctx, agent: i, core: topo.GlobalCore(ctx),
		burst: truth.Burstiness,
		fInit: fInit,
		f:     fInit,
		sRes:  1, sTot: 1,
		dramMult: s.dramMult[ctx.Socket],
		workload: isWorkload,
		active:   active,
	}
	if active {
		spd := speedScale(s.freqScale[ctx.Socket], truth.MemBoundFrac)
		c.demand = truth.Demand.Scale(spd)
		c.perCore = perCore
	}
	s.classes = append(s.classes, c)
	return int32(len(s.classes) - 1)
}

// join adds agent i to class k, extending the last run or starting one.
func (s *runScratch) join(i int, k int32) {
	s.classes[k].n++
	s.classOf[i] = k
	if r := len(s.runs) - 1; r >= 0 && s.runs[r].cls == k {
		s.runs[r].n++
	} else {
		s.runs = append(s.runs, run{cls: k, n: 1})
	}
}

// coRunners returns the indices of the agents on core g, in agent order.
func (s *runScratch) coRunners(g int) []int {
	start := g * s.slots
	return s.coreAgents[start : start+s.coreCount[g]]
}

// demandWalk is the flattened resource walk of one run: every active
// class's (resource index, offered demand, copies) triples, in class order
// and, within a class, in hierarchy order: the representative core's
// resources first, then the shared ones (L3 aggregate, DRAM,
// interconnect). A pair's copies count the class's agents that offer it:
// the class's agents on one core for a core resource, every agent of the
// class for a shared one. layout fixes the pairs once per run; values
// rewrites only their demands each fixed-point iteration. The table pass,
// the slowdown pass and water-filling share the buffer.
type demandWalk struct {
	idx []int
	d   []float64
	m   []int
	// term[p] names the demand term that gives pair p's value.
	term []uint8
	// mid[k] is the first shared pair of class k and end[k] one past its
	// last pair.
	mid, end []int
	n        int
	// res lists the run's distinct resources in first-use order; listed
	// flags them while layout builds the list.
	res    []int
	listed []bool
	// sharedRes lists the run's distinct shared resources, slot[p] is
	// shared pair p's position in it and slotOf maps a resource back to
	// its position while layout builds the list (-1: none). addend holds
	// each class's demand on the shared resources of one replay, by slot.
	sharedRes []int
	slot      []int
	slotOf    []int
	addend    [][replayWidth]float64
	// stressed reports a stressor in the run.
	stressed bool
	// pop collects one resource's demand population for water-filling.
	pop []float64
}

// The demand terms of a pair's value: a class's per-resource demand at its
// utilisation; the DRAM demand with the spill multiplier, as a stressor
// offers it locally; its interleaved share on one memory socket; and that
// share in both directions on the link to a remote memory socket (the
// accounting convention calibrated to the paper's Fig. 7 worked example).
const (
	termInstr = iota
	termL1
	termL2
	termL3
	termDRAM
	termDRAMShare
	termIC
	nTerms
)

// absent is the value of a pair that offers no demand this iteration: its
// term is not positive at the class's utilisation. Every pass skips it.
const absent = -1.0

// newDemandWalk sizes the walk for nAgents agents on nSock sockets and a
// table of nRes resources: an agent offers at most five core and cache
// demands plus, per memory socket, a DRAM and an interconnect demand, and
// a class has at least one agent.
func newDemandWalk(nAgents, nSock, nRes int) demandWalk {
	pairs := nAgents * (5 + 2*nSock)
	w := demandWalk{
		idx:       make([]int, pairs),
		d:         make([]float64, pairs),
		m:         make([]int, pairs),
		term:      make([]uint8, pairs),
		mid:       make([]int, nAgents),
		end:       make([]int, nAgents),
		res:       make([]int, 0, nRes),
		listed:    make([]bool, nRes),
		sharedRes: make([]int, 0, nRes),
		slot:      make([]int, pairs),
		slotOf:    make([]int, nRes),
		addend:    make([][replayWidth]float64, nAgents),
		pop:       make([]float64, nAgents),
	}
	for i := range w.slotOf {
		w.slotOf[i] = -1
	}
	return w
}

// layout records the pairs of every active class for the run and lists
// its distinct resources. A pair is laid out where its term's coefficient
// is positive: a utilisation is never negative, so no other pair can ever
// offer demand.
//
//pandia:noalloc
func (w *demandWalk) layout(t *resTable, cls []class, memSockets []int) {
	w.n = 0
	w.res = w.res[:0]
	w.sharedRes = w.sharedRes[:0]
	w.stressed = false
	for k := range cls {
		w.mid[k], w.end[k] = w.n, w.n
		if c := &cls[k]; c.active {
			w.stressed = w.stressed || !c.workload
			w.layoutCore(t, c)
			w.mid[k] = w.n
			w.layoutShared(t, c, memSockets)
			w.end[k] = w.n
			for p := w.mid[k]; p < w.end[k]; p++ {
				i := w.idx[p]
				if w.slotOf[i] < 0 {
					w.slotOf[i] = len(w.sharedRes)
					w.sharedRes = w.sharedRes[:len(w.sharedRes)+1]
					w.sharedRes[w.slotOf[i]] = i
				}
				w.slot[p] = w.slotOf[i]
			}
		}
	}
	for _, i := range w.res {
		w.listed[i] = false
	}
	for _, i := range w.sharedRes {
		w.slotOf[i] = -1
	}
}

// layoutCore lays out an active class's pairs on its representative
// core's resources, one copy per agent of the class on the core.
func (w *demandWalk) layoutCore(t *resTable, c *class) {
	if c.demand.Instr > 0 {
		w.put(t.instrIdx(c.core), termInstr, c.perCore)
	}
	if c.demand.L1 > 0 {
		w.put(t.l1Idx(c.core), termL1, c.perCore)
	}
	if c.demand.L2 > 0 {
		w.put(t.l2Idx(c.core), termL2, c.perCore)
	}
	if c.demand.L3 > 0 {
		w.put(t.l3LinkIdx(c.core), termL3, c.perCore)
	}
}

// layoutShared lays out an active class's pairs on the shared resources,
// one copy per agent of the class: a workload thread's DRAM demand
// interleaves over the memory sockets, and a stressor allocates locally.
func (w *demandWalk) layoutShared(t *resTable, c *class, memSockets []int) {
	if c.demand.L3 > 0 {
		w.put(t.l3AggIdx(c.ctx.Socket), termL3, c.n)
	}
	if c.demand.DRAM > 0 {
		if c.workload {
			for _, u := range memSockets {
				w.put(t.dramIdx(u), termDRAMShare, c.n)
				if u != c.ctx.Socket {
					w.put(t.icIdx(c.ctx.Socket, u), termIC, c.n)
				}
			}
		} else {
			w.put(t.dramIdx(c.ctx.Socket), termDRAM, c.n)
		}
	}
}

func (w *demandWalk) put(idx int, term uint8, m int) {
	w.idx[w.n] = idx
	w.term[w.n] = term
	w.m[w.n] = m
	w.n++
	if !w.listed[idx] {
		w.listed[idx] = true
		w.res = w.res[:len(w.res)+1] // capacity: every resource of the table
		w.res[len(w.res)-1] = idx
	}
}

// values writes every pair's demand at its class's current utilisation,
// with the per-agent reference's products in its order: each per-resource
// demand times f, and the DRAM demand times f times the spill multiplier,
// then times the memory share (twice that on a link). A pair whose term
// is not positive offers no demand this iteration and reads absent; a
// share pair whose DRAM term is positive stays present even where its own
// product underflows to 0.
//
//pandia:noalloc
func (w *demandWalk) values(cls []class, memShare float64) {
	p := 0
	for k := range cls {
		c := &cls[k]
		if p == w.end[k] {
			continue
		}
		f := c.f
		dram := c.demand.DRAM * f * c.dramMult
		v := [nTerms]float64{c.demand.Instr * f, c.demand.L1 * f, c.demand.L2 * f, c.demand.L3 * f,
			dram, dram * memShare, 2 * dram * memShare}
		for i := termInstr; i <= termDRAM; i++ {
			if !(v[i] > 0) {
				v[i] = absent
			}
		}
		if v[termDRAM] == absent {
			v[termDRAMShare], v[termIC] = absent, absent
		}
		for ; p < w.end[k]; p++ {
			w.d[p] = v[w.term[p]]
		}
	}
}

// addends fills every class's demand on the shared resources in slots
// base to base+replayWidth-1, by slot: +0 where the class offers none this
// iteration, as add skips a demand that is not positive. A class's shared
// resources are distinct, so no slot takes two pairs.
//
//pandia:noalloc
func (w *demandWalk) addends(base, nCls int) {
	for k := 0; k < nCls; k++ {
		a := &w.addend[k]
		*a = [replayWidth]float64{}
		for p := w.mid[k]; p < w.end[k]; p++ {
			if s := uint(w.slot[p] - base); s < replayWidth && w.d[p] > 0 {
				a[s] = w.d[p]
			}
		}
	}
}

// of returns class k's pairs with their copies.
func (w *demandWalk) of(k int) ([]int, []float64, []int) {
	start := 0
	if k > 0 {
		start = w.end[k-1]
	}
	return w.idx[start:w.end[k]], w.d[start:w.end[k]], w.m[start:w.end[k]]
}

// local returns class k's pairs on its representative core's resources.
func (w *demandWalk) local(k int) ([]int, []float64, []int) {
	idx, d, m := w.of(k)
	n := len(idx) - (w.end[k] - w.mid[k])
	return idx[:n], d[:n], m[:n]
}

// demandsOf collects every user's offered demand on one resource, each
// present pair repeated by its copies, for water-filling on heterogeneous
// resources. waterfill sorts the population, so only the multiset counts.
// The result aliases w.pop and is valid until the next call.
func (w *demandWalk) demandsOf(idx int) []float64 {
	k := 0
	for j := 0; j < w.n; j++ {
		if w.idx[j] == idx && w.d[j] != absent {
			for c := 0; c < w.m[j]; c++ {
				w.pop[k] = w.d[j]
				k++
			}
		}
	}
	return w.pop[:k]
}
