package simhw

import (
	"fmt"
	"math"
	"sync"

	"pandia/internal/counters"
	"pandia/internal/topology"
)

// PlacedStressor co-locates one stress-application thread with the workload
// under test (used by the machine description generator and by profiling
// runs 4 and 5).
type PlacedStressor struct {
	Ctx   topology.Context
	Truth WorkloadTruth
}

// MemPolicy controls where the workload's memory lives. The zero value is
// the default first-touch/interleave behaviour: pages spread over the
// sockets hosting any of the workload's threads. BindSockets emulates
// numactl, forcing all pages onto the given sockets.
type MemPolicy struct {
	BindSockets []int
}

// RunConfig describes one run on the testbed.
type RunConfig struct {
	Workload  WorkloadTruth
	Placement []topology.Context
	Stressors []PlacedStressor
	Memory    MemPolicy
	Power     PowerMode
	// Seed perturbs the deterministic measurement noise. Runs with equal
	// configurations and seeds return identical results.
	Seed int64
}

// RunResult reports the outcome of one run.
type RunResult struct {
	// Time is the measured wall-clock duration in seconds (noise included).
	Time float64
	// Sample is the virtual performance-counter sample for the workload
	// (stressor activity is not included, mirroring per-process counters).
	Sample counters.Sample
	// ThreadRates is the achieved progress rate of each placed workload
	// thread relative to uncontended full speed (diagnostic; 0 for threads
	// idled by WorkloadTruth.ActiveThreads).
	ThreadRates []float64
}

// Testbed executes runs against one machine truth. It is safe for
// concurrent use: each run borrows its working memory from a pool and
// returns it when done.
type Testbed struct {
	truth MachineTruth
	// scratch holds *runScratch values sized for truth.Topo.
	scratch sync.Pool
}

// NewTestbed validates the machine truth and returns a testbed for it.
func NewTestbed(mt MachineTruth) (*Testbed, error) {
	if err := mt.Validate(); err != nil {
		return nil, err
	}
	return &Testbed{truth: mt}, nil
}

// Machine returns the shape of the simulated machine (the part of the truth
// the OS legitimately exposes).
func (tb *Testbed) Machine() topology.Machine { return tb.truth.Topo }

// L3SizeMB returns the per-socket last-level cache capacity, which the OS
// exposes (e.g. via sysfs) and the stress applications need to size their
// arrays (§3.1).
func (tb *Testbed) L3SizeMB() float64 { return tb.truth.L3SizeMB }

// Truth exposes the ground truth for tests and the benchmark zoo only;
// prediction code must never consult it.
func (tb *Testbed) Truth() MachineTruth { return tb.truth }

const (
	maxFixedPointIters = 80
	fixedPointTol      = 1e-9
	spillAdaptiveGain  = 0.15
	spillCliffGain     = 0.8
	spillCliffExp      = 0.6
)

// class is a set of interchangeable demand sources in the fixed-point
// computation. An agent is a placed workload thread or a stressor thread.
// The workload threads on one socket that agree on activity and on the
// number of active agents on their core form one class, unless a stressor
// shares their core; such a thread, and each stressor, is a class of its
// own. Every agent of a class keeps the class's state bit for bit (see
// the simulated testbed in DESIGN.md §8).
type class struct {
	ctx      topology.Context // the representative's context
	agent    int              // the representative: the class's first agent
	core     int              // the representative's machine-wide core index
	n        int              // agents in the class
	perCore  int              // active agents of the class on each of its cores
	demand   counters.Rates
	dramMult float64
	burst    float64
	fInit    float64
	f        float64
	sRes     float64 // contention slowdown (incl. burstiness)
	sTot     float64 // overall slowdown (incl. comm and load balancing)
	rate     float64 // progress rate of a thread, set by assemble
	workload bool
	active   bool
}

// run is n consecutive agents of one class. Replaying the runs in order
// adds each agent's value to an order-sensitive sum in agent order.
type run struct {
	cls, n int32
}

// Run executes one run and returns its measured time and counters.
func (tb *Testbed) Run(cfg RunConfig) (RunResult, error) {
	s := tb.getScratch()
	defer tb.scratch.Put(s)
	return tb.run(s, &cfg)
}

// run executes one run in scratch s, which any earlier run may have used.
func (tb *Testbed) run(s *runScratch, cfg *RunConfig) (RunResult, error) {
	amdahl, nAct, err := tb.setup(s, cfg)
	if err != nil {
		return RunResult{}, err
	}
	tb.buildClasses(s, cfg, amdahl/float64(nAct), nAct) //nanguard:ok setup returns nAct > 0 with a nil error
	tb.fixedPoint(s, &cfg.Workload, nAct)
	return tb.assemble(s, cfg, amdahl, nAct)
}

// setup validates the run, resolves its memory sockets and clocks, and
// returns the Amdahl speedup and the active thread count.
func (tb *Testbed) setup(s *runScratch, cfg *RunConfig) (amdahl float64, nAct int, err error) {
	mt := &tb.truth
	wt := &cfg.Workload
	if err := wt.Validate(); err != nil {
		return 0, 0, err
	}
	n := len(cfg.Placement)
	if n == 0 {
		return 0, 0, fmt.Errorf("simhw: empty placement for workload %q", wt.Name)
	}

	// Distinct valid contexts bound the agent count by the machine's
	// context count, which sizes every per-agent scratch buffer.
	occupied := s.occupied
	clear(occupied)
	for _, c := range cfg.Placement {
		if !mt.Topo.ValidContext(c) {
			return 0, 0, fmt.Errorf("simhw: context %v not on machine %s", c, mt.Topo.Name)
		}
		ci := mt.Topo.ContextIndex(c)
		if occupied[ci] {
			return 0, 0, fmt.Errorf("simhw: context %v assigned twice", c)
		}
		occupied[ci] = true
	}
	for _, st := range cfg.Stressors {
		if err := st.Truth.Validate(); err != nil {
			return 0, 0, err
		}
		if !mt.Topo.ValidContext(st.Ctx) {
			return 0, 0, fmt.Errorf("simhw: stressor context %v not on machine %s", st.Ctx, mt.Topo.Name)
		}
		ci := mt.Topo.ContextIndex(st.Ctx)
		if occupied[ci] {
			return 0, 0, fmt.Errorf("simhw: stressor context %v already occupied", st.Ctx)
		}
		occupied[ci] = true
	}

	if err := tb.memorySockets(s, cfg); err != nil {
		return 0, 0, err
	}

	nAct = wt.activeCount(n)
	if nAct <= 0 {
		return 0, 0, fmt.Errorf("simhw: workload %q has no active threads", wt.Name)
	}
	tb.socketFreqScales(s, cfg, nAct)
	return amdahlSpeedup(wt.ParallelFrac, nAct), nAct, nil
}

// memorySockets resolves the memory policy into the sorted set of sockets
// holding the workload's pages (s.memSockets, with s.memOn as its
// membership flags).
func (tb *Testbed) memorySockets(s *runScratch, cfg *RunConfig) error {
	clear(s.memOn)
	if bind := cfg.Memory.BindSockets; len(bind) > 0 {
		for _, b := range bind {
			if b < 0 || b >= tb.truth.Topo.Sockets {
				return fmt.Errorf("simhw: memory bound to socket %d outside machine %s", b, tb.truth.Topo.Name)
			}
			s.memOn[b] = true
		}
	} else {
		for _, c := range cfg.Placement {
			s.memOn[c.Socket] = true
		}
	}
	s.memSockets = s.memSockets[:0]
	for sock, on := range s.memOn {
		if on {
			s.memSockets = append(s.memSockets, sock)
		}
	}
	return nil
}

// socketFreqScales computes each socket's clock relative to the reference
// operating point under the run's power mode: the turbo frequency depends on
// how many cores the run keeps active.
func (tb *Testbed) socketFreqScales(s *runScratch, cfg *RunConfig, nAct int) {
	mt := &tb.truth
	activeCores := s.activeCores
	if cfg.Power == PowerFilled {
		for sock := range activeCores {
			activeCores[sock] = mt.Topo.CoresPerSocket
		}
	} else {
		clear(activeCores)
		clear(s.coreActive)
		for i, c := range cfg.Placement {
			if i < nAct {
				s.markCoreActive(mt.Topo, c)
			}
		}
		for _, st := range cfg.Stressors {
			s.markCoreActive(mt.Topo, st.Ctx)
		}
	}
	for sock := range s.freqScale {
		s.freqScale[sock] = mt.FreqScale(activeCores[sock], cfg.Power)
	}
}

// buildClasses sets the per-socket DRAM spill, the per-core occupancy and
// agent index, and groups the agents into classes and runs.
func (tb *Testbed) buildClasses(s *runScratch, cfg *RunConfig, fInitWorkload float64, nAct int) {
	tb.spill(s, cfg, nAct)
	topo := tb.truth.Topo
	wt := &cfg.Workload
	s.occupy(topo, cfg, nAct)
	s.classes = s.classes[:0]
	s.runs = s.runs[:0]
	for i, c := range cfg.Placement {
		g := topo.GlobalCore(c)
		active := i < nAct
		if s.stressed[g] {
			s.join(i, s.newClass(topo, i, c, wt, fInitWorkload, true, active, 1))
			continue
		}
		// The class key: socket, active agents on the core, activity.
		key := 2 * (c.Socket*(s.slots+1) + s.coreOcc[g])
		if active {
			key++
		}
		k := s.classKey[key]
		if k < 0 {
			k = s.newClass(topo, i, c, wt, fInitWorkload, true, active, s.coreOcc[g])
			s.classKey[key] = k
		}
		s.join(i, k)
	}
	for j := range cfg.Stressors {
		st := &cfg.Stressors[j]
		i := len(cfg.Placement) + j
		s.join(i, s.newClass(topo, i, st.Ctx, &st.Truth, 1, false, true, 1))
	}
	for i := range s.classKey {
		s.classKey[i] = -1
	}
}

// spill sets each socket's DRAM spill multiplier from its cache pressure.
func (tb *Testbed) spill(s *runScratch, cfg *RunConfig, nAct int) {
	mt := &tb.truth
	pressure := s.pressure
	clear(pressure)
	for i, c := range cfg.Placement {
		if i < nAct {
			pressure[c.Socket] += cfg.Workload.WorkingSetMB
		}
	}
	for _, st := range cfg.Stressors {
		pressure[st.Ctx.Socket] += st.Truth.WorkingSetMB
	}
	for sock := range s.dramMult {
		s.dramMult[sock] = mt.spillMultiplier(pressure[sock])
	}
}

// spillMultiplier returns the factor by which a socket's cache pressure
// inflates DRAM demand for threads running there.
func (mt *MachineTruth) spillMultiplier(pressureMB float64) float64 {
	if mt.L3SizeMB <= 0 || pressureMB <= mt.L3SizeMB || pressureMB <= 0 {
		return 1
	}
	over := (pressureMB - mt.L3SizeMB) / pressureMB
	if over <= 0 {
		return 1
	}
	if mt.AdaptiveCache {
		return 1 + spillAdaptiveGain*over
	}
	return 1 + spillCliffGain*math.Pow(over, spillCliffExp)
}

// phi is the contention response for homogeneous sharing: linear slowdown
// beyond saturation with a bounded queueing excess ramping in near
// saturation. Up to the ramp's start the excess is 0 for the finite q
// that MachineTruth.Validate admits, so the response is exactly 1 there.
func phi(util, q float64) float64 {
	if util <= satStart {
		return 1
	}
	v := util * (1 + q*satWeight(util))
	if v < 1 {
		return 1
	}
	return v
}

// fixedPoint iterates demand scaling, contention, communication and load
// balancing until the utilisation factors converge. It works entirely in
// the run's scratch, on one state per class; only the order-sensitive
// sums (the shared resources' totals, the comm penalty's sums) replay the
// runs, adding a class's value once per agent in agent order.
//
//pandia:noalloc
func (tb *Testbed) fixedPoint(s *runScratch, wt *WorkloadTruth, nAct int) {
	mt := &tb.truth
	q := mt.QueueFactor
	cls := s.classes
	table := &s.table
	dw := &s.demands
	memShare := safeDiv(1, float64(len(s.memSockets)), 1)
	table.setCapacities(mt, s.coreOcc, s.freqScale)

	dw.layout(table, cls, s.memSockets)
	table.countUsers(dw, cls)

	for iter := 0; iter < maxFixedPointIters; iter++ {
		dw.values(cls, memShare)
		table.reset(dw.res, dw.stressed)
		// Demand extremes where a stressor shares the resource, and the
		// representative cores' totals: only the class's agents on one
		// core add to a core resource.
		if dw.stressed {
			for k := range cls {
				idx, d, _ := dw.of(k)
				for p := range idx {
					table.note(idx[p], d[p])
				}
			}
		}
		for k := range cls {
			idx, d, m := dw.local(k)
			for p := range idx {
				table.add(idx[p], d[p], m[p])
			}
		}
		// The shared resources' totals, one addition per agent.
		table.sumShared(dw, len(cls), s.runs)
		for _, i := range dw.res {
			table.classify(i, q, dw)
		}

		// Per-class contention slowdown: worst over-subscription on the
		// representative's resource path.
		for k := range cls {
			c := &cls[k]
			if !c.active {
				c.sRes, c.sTot = 1, 1
				continue
			}
			sl := 1.0
			idx, d, _ := dw.of(k)
			for p := range idx {
				if d[p] == absent {
					continue
				}
				got := table.slow[idx[p]]
				if got == 0 {
					got = table.waterfilled(idx[p], d[p])
				}
				if got > sl {
					sl = got
				}
			}
			// Core-sharing burstiness: interference scaled by how busy the
			// co-runners are.
			if s.coreOcc[c.core] > 1 && c.burst > 0 {
				var coF float64
				for _, j := range s.coRunners(c.core) {
					if b := &cls[s.classOf[j]]; j != c.agent && b.active {
						coF += b.f
					}
				}
				sl += c.burst * sl * coF
			}
			c.sRes = sl
			c.sTot = sl
		}

		// Communication penalty across sockets for the measured workload,
		// interpolated between lock-step and work-weighted extremes. A
		// thread's penalty sums over its peers on other sockets, so it
		// depends only on its own socket: one sum per socket, over peers
		// in agent order, reproduces every per-thread sum exactly.
		if wt.CommCost > 0 && nAct > 1 {
			// Slowdowns are >= 1 by construction; safeDiv keeps a poisoned
			// value from spreading NaN through every thread's penalty.
			var invSum float64
			for _, r := range s.runs {
				if c := &cls[r.cls]; c.workload && c.active {
					inv := safeDiv(1, c.sRes, 1)
					for m := int32(0); m < r.n; m++ {
						invSum += inv
					}
				}
			}
			if invSum > 0 {
				s.commPenalties(wt, nAct, invSum)
				for k := range cls {
					c := &cls[k]
					if c.workload && c.active {
						c.sTot += s.commPen[c.ctx.Socket] * safeDiv(c.fInit, c.sRes, c.fInit)
					}
				}
			}
		}

		// Load balancing: without dynamic balancing every thread waits for
		// the slowest.
		if nAct > 1 {
			var sMax float64
			for k := range cls {
				if cls[k].workload && cls[k].active && cls[k].sTot > sMax {
					sMax = cls[k].sTot
				}
			}
			l := wt.LoadBalance
			for k := range cls {
				c := &cls[k]
				if c.workload && c.active {
					c.sTot = (1-l)*sMax + l*c.sTot
				}
			}
		}

		// Utilisation update with damping.
		var maxDelta float64
		for k := range cls {
			c := &cls[k]
			if !c.active {
				continue
			}
			// Synchronisation penalties idle the thread and shrink its
			// offered load; contention throttling does not (the demand is
			// still offered, just serviced slowly). Hence the utilisation
			// is the initial busy fraction scaled by the share of the
			// slowdown that contention accounts for, exactly as in the
			// paper's iteration (§5.4). Geometric damping keeps the map
			// contractive when penalties are stiff.
			target := c.fInit * safeDiv(c.sRes, c.sTot, 1)
			next := math.Sqrt(c.f * target)
			if d := math.Abs(next - c.f); d > maxDelta {
				maxDelta = d
			}
			c.f = next
		}
		if maxDelta < fixedPointTol {
			break
		}
	}
}

// commPenalties sets each socket's comm penalty: the sum, over the active
// workload peers on other sockets in agent order, of a peer's term, which
// depends on its class alone. One replay of the runs sums replayWidth
// sockets at once, a peer adding +0 to its own socket's sum as it would
// skip it: a penalty starts at +0 and is never -0, so +0 leaves it bit for
// bit unchanged.
//
//pandia:noalloc
func (s *runScratch) commPenalties(wt *WorkloadTruth, nAct int, invSum float64) {
	cls := s.classes
	add := s.demands.addend
	nSock := len(s.commPen)
	for base := 0; base < nSock; base += replayWidth {
		live := min(replayWidth, nSock-base)
		for k := range cls {
			a := &add[k]
			*a = [replayWidth]float64{}
			b := &cls[k]
			if !b.workload || !b.active {
				continue
			}
			w := safeDiv(1, b.sRes, 1) / invSum //nanguard:ok the caller passes invSum > 0
			term := wt.CommCost * ((1 - wt.LoadBalance) + wt.LoadBalance*float64(nAct)*w)
			for i := 0; i < live; i++ {
				if base+i != b.ctx.Socket {
					a[i] = term
				}
			}
		}
		var acc [replayWidth]float64
		replayRuns(&acc, add, s.runs)
		copy(s.commPen[base:], acc[:live])
	}
}

// assemble turns the converged class state into a run result with noise
// and counters. The progress and traffic sums replay the runs.
func (tb *Testbed) assemble(s *runScratch, cfg *RunConfig, amdahl float64, nAct int) (RunResult, error) {
	mt := &tb.truth
	wt := &cfg.Workload
	n := len(cfg.Placement)
	if nAct <= 0 || len(s.memSockets) == 0 {
		return RunResult{}, fmt.Errorf("simhw: internal: workload %q with no active threads or memory sockets", wt.Name)
	}

	growth := 1 + wt.WorkGrowth*float64(nAct-1)
	work := wt.SeqTime * growth

	for k := range s.classes {
		c := &s.classes[k]
		if !c.workload || !c.active {
			continue
		}
		spd := 1.0
		if c.demand.Instr > 0 && wt.Demand.Instr > 0 {
			spd = c.demand.Instr / wt.Demand.Instr
		} else if c.demand.DRAM > 0 && wt.Demand.DRAM > 0 {
			spd = c.demand.DRAM / wt.Demand.DRAM
		}
		c.rate = safeDiv(spd, c.sTot, 0)
	}
	var rateSum float64
	for _, r := range s.runs {
		if c := &s.classes[r.cls]; c.workload && c.active {
			for m := int32(0); m < r.n; m++ {
				rateSum += c.rate
			}
		}
	}
	if rateSum <= 0 {
		return RunResult{}, fmt.Errorf("simhw: workload %q made no progress", wt.Name)
	}
	speedup := amdahl * rateSum / float64(nAct)
	if speedup <= 0 {
		return RunResult{}, fmt.Errorf("simhw: degenerate speedup for workload %q", wt.Name)
	}
	t := work / speedup

	// Deterministic log-normal measurement noise.
	sigma := mt.NoiseSigma
	if wt.NoiseSigma > 0 {
		sigma = wt.NoiseSigma
	}
	if sigma > 0 {
		t *= math.Exp(sigma * tb.noiseZ(s, cfg))
	}

	// Counter volumes: useful work is constant across placements; DRAM
	// traffic additionally reflects cache spill, and interconnect traffic
	// the remote share of memory accesses.
	var dramBytes, icBytes float64
	remote := float64(len(s.memSockets)-1) / float64(len(s.memSockets))
	share := work / float64(nAct)
	for _, r := range s.runs {
		c := &s.classes[r.cls]
		if !c.workload || !c.active {
			continue
		}
		b := wt.Demand.DRAM * share * c.dramMult
		ic := 2 * b
		if s.memOn[c.ctx.Socket] {
			ic = 2 * b * remote
		}
		for m := int32(0); m < r.n; m++ {
			dramBytes += b
			icBytes += ic
		}
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = s.classes[s.classOf[i]].rate
	}
	sample := counters.Sample{
		Elapsed:           t,
		Instructions:      wt.Demand.Instr * work,
		L1Bytes:           wt.Demand.L1 * work,
		L2Bytes:           wt.Demand.L2 * work,
		L3Bytes:           wt.Demand.L3 * work,
		DRAMBytes:         dramBytes,
		InterconnectBytes: icBytes,
		Threads:           n,
	}
	return RunResult{Time: t, Sample: sample, ThreadRates: rates}, nil
}

// noiseZ derives a deterministic standard-normal variate from the run
// configuration, so identical runs measure identical times: the first
// NormFloat64 of rand.New(rand.NewSource(RunKey(machine name, cfg))).
//
//pandia:noalloc
func (tb *Testbed) noiseZ(s *runScratch, cfg *RunConfig) float64 {
	s.src.Seed(int64(RunKey(tb.truth.Topo.Name, cfg)))
	return s.rng.NormFloat64() //alloccheck:ok math/rand's ziggurat draws only from s.src, whose Uint64 and Int63 are noalloc
}

// amdahlSpeedup is the classic Amdahl's-law speedup for parallel fraction p
// on n threads.
func amdahlSpeedup(p float64, n int) float64 {
	if n <= 1 {
		return 1
	}
	den := (1 - p) + p/float64(n)
	if den <= 0 {
		// Only reachable for p outside [0,1]; linear speedup at best.
		return float64(n)
	}
	return 1 / den
}
