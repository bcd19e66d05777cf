package simhw

import (
	"hash"
	"hash/fnv"
	"math/rand"
	"strconv"

	"pandia/internal/topology"
)

// runScratch is the working memory of one Testbed.Run, sized once for the
// machine and recycled through Testbed.scratch, so a steady-state run
// allocates only the ThreadRates it returns. Every field is reset by the
// run stage that fills it; nothing carries over between runs.
type runScratch struct {
	table   resTable
	demands demandWalk
	agents  []agent // capacity: the machine's context count

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
	// occupancy, and the agents placed there (coreAgents holds
	// ThreadsPerCore slots per core, coreCount of them in use, in agent
	// order).
	coreActive []bool
	coreOcc    []int
	coreAgents []int
	coreCount  []int
	slots      int

	// Measurement noise: the hash input, the hash, and a generator that
	// Seed resets to exactly the stream rand.New(rand.NewSource(seed))
	// would produce.
	noiseKey []byte
	hash     hash.Hash64
	rng      *rand.Rand
}

func newRunScratch(topo topology.Machine) *runScratch {
	nCtx := topo.TotalContexts()
	nCores := topo.TotalCores()
	nSock := topo.Sockets
	return &runScratch{
		table:       newResTable(topo),
		demands:     newDemandWalk(nCtx, nSock),
		agents:      make([]agent, 0, nCtx),
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
		coreAgents:  make([]int, nCtx),
		coreCount:   make([]int, nCores),
		slots:       topo.ThreadsPerCore,
		hash:        fnv.New64a(),
		rng:         rand.New(rand.NewSource(0)),
	}
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

// addAgent appends one demand source. Active agents offer their truth's
// demand at the socket's clock and occupy their core.
func (s *runScratch) addAgent(topo topology.Machine, ctx topology.Context, truth *WorkloadTruth, fInit float64, isWorkload, active bool) {
	g := topo.GlobalCore(ctx)
	a := agent{
		ctx: ctx, core: g,
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
		a.demand = truth.Demand.Scale(spd)
		s.coreOcc[g]++
	}
	s.agents = append(s.agents, a)
}

// indexCores records which agents sit on each core, in agent order.
func (s *runScratch) indexCores() {
	clear(s.coreCount)
	for i := range s.agents {
		g := s.agents[i].core
		s.coreAgents[g*s.slots+s.coreCount[g]] = i
		s.coreCount[g]++
	}
}

// coRunners returns the indices of the agents on core g, in agent order.
func (s *runScratch) coRunners(g int) []int {
	start := g * s.slots
	return s.coreAgents[start : start+s.coreCount[g]]
}

// demandWalk is the flattened resource walk of one fixed-point iteration:
// every active agent's (resource index, offered demand) pairs, in agent
// order and, within an agent, in hierarchy order. Each resource's total
// therefore accumulates in the same order whichever pass reads it, and the
// table pass, the slowdown pass and water-filling share one buffer.
type demandWalk struct {
	idx []int
	d   []float64
	end []int // end[i] is one past agent i's last pair
	n   int
	// pop collects one resource's demand population for water-filling.
	pop []float64
}

// newDemandWalk sizes the walk for nAgents agents on nSock sockets: an
// agent offers at most five core and cache demands plus, per memory
// socket, a DRAM and an interconnect demand.
func newDemandWalk(nAgents, nSock int) demandWalk {
	pairs := nAgents * (5 + 2*nSock)
	return demandWalk{
		idx: make([]int, pairs),
		d:   make([]float64, pairs),
		end: make([]int, nAgents),
		pop: make([]float64, nAgents),
	}
}

// walk rebuilds the pairs of every agent at its current utilisation.
func (w *demandWalk) walk(t *resTable, agents []agent, memSockets []int, memShare float64) {
	w.n = 0
	for i := range agents {
		if a := &agents[i]; a.active {
			w.walkAgent(t, a, memSockets, memShare)
		}
		w.end[i] = w.n
	}
}

// walkAgent records the (resource, offered demand) pairs of an active
// agent, applying the memory interleave and the both-directions
// interconnect accounting convention (calibrated to the paper's Fig. 7
// worked example).
func (w *demandWalk) walkAgent(t *resTable, a *agent, memSockets []int, memShare float64) {
	f := a.f
	if d := a.demand.Instr * f; d > 0 {
		w.put(t.instrIdx(a.core), d)
	}
	if d := a.demand.L1 * f; d > 0 {
		w.put(t.l1Idx(a.core), d)
	}
	if d := a.demand.L2 * f; d > 0 {
		w.put(t.l2Idx(a.core), d)
	}
	if d := a.demand.L3 * f; d > 0 {
		w.put(t.l3LinkIdx(a.core), d)
		w.put(t.l3AggIdx(a.ctx.Socket), d)
	}
	if d := a.demand.DRAM * f * a.dramMult; d > 0 {
		if a.workload {
			for _, u := range memSockets {
				w.put(t.dramIdx(u), d*memShare)
				if u != a.ctx.Socket {
					w.put(t.icIdx(a.ctx.Socket, u), 2*d*memShare)
				}
			}
		} else {
			w.put(t.dramIdx(a.ctx.Socket), d) // stressors allocate locally
		}
	}
}

func (w *demandWalk) put(idx int, d float64) {
	w.idx[w.n] = idx
	w.d[w.n] = d
	w.n++
}

// of returns agent i's pairs.
func (w *demandWalk) of(i int) ([]int, []float64) {
	start := 0
	if i > 0 {
		start = w.end[i-1]
	}
	return w.idx[start:w.end[i]], w.d[start:w.end[i]]
}

// demandsOf collects every user's offered demand on one resource, in agent
// order, for water-filling on heterogeneous resources. The result aliases
// w.pop and is valid until the next call.
func (w *demandWalk) demandsOf(idx int) []float64 {
	k := 0
	for j := 0; j < w.n; j++ {
		if w.idx[j] == idx {
			w.pop[k] = w.d[j]
			k++
		}
	}
	return w.pop[:k]
}

// appendNoiseKey appends the byte string that seeds a run's measurement
// noise: "machine|workload|power|seed|", then "socket.core.slot," per
// placed thread, "Ssocket.core.slot:name," per stressor and "Msocket," per
// memory-bound socket.
func appendNoiseKey(b []byte, machine string, cfg *RunConfig) []byte {
	b = append(b, machine...)
	b = append(b, '|')
	b = append(b, cfg.Workload.Name...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cfg.Power), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, cfg.Seed, 10)
	b = append(b, '|')
	for _, c := range cfg.Placement {
		b = appendContext(b, c)
		b = append(b, ',')
	}
	for _, st := range cfg.Stressors {
		b = append(b, 'S')
		b = appendContext(b, st.Ctx)
		b = append(b, ':')
		b = append(b, st.Truth.Name...)
		b = append(b, ',')
	}
	for _, m := range cfg.Memory.BindSockets {
		b = append(b, 'M')
		b = strconv.AppendInt(b, int64(m), 10)
		b = append(b, ',')
	}
	return b
}

// appendContext appends "socket.core.slot".
func appendContext(b []byte, c topology.Context) []byte {
	b = strconv.AppendInt(b, int64(c.Socket), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(c.Core), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(c.Slot), 10)
}
