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

// agent is one demand source in the fixed-point computation: a workload
// thread or a stressor thread.
type agent struct {
	ctx      topology.Context
	core     int // machine-wide core index
	demand   counters.Rates
	dramMult float64
	burst    float64
	fInit    float64
	f        float64
	sRes     float64 // contention slowdown (incl. burstiness)
	sTot     float64 // overall slowdown (incl. comm and load balancing)
	workload bool
	active   bool
}

// Run executes one run and returns its measured time and counters.
func (tb *Testbed) Run(cfg RunConfig) (RunResult, error) {
	mt := &tb.truth
	wt := &cfg.Workload
	if err := wt.Validate(); err != nil {
		return RunResult{}, err
	}
	n := len(cfg.Placement)
	if n == 0 {
		return RunResult{}, fmt.Errorf("simhw: empty placement for workload %q", wt.Name)
	}
	s := tb.getScratch()
	defer tb.scratch.Put(s)

	// Distinct valid contexts bound the agent count by the machine's
	// context count, which sizes every per-agent scratch buffer.
	occupied := s.occupied
	clear(occupied)
	for _, c := range cfg.Placement {
		if !mt.Topo.ValidContext(c) {
			return RunResult{}, fmt.Errorf("simhw: context %v not on machine %s", c, mt.Topo.Name)
		}
		ci := mt.Topo.ContextIndex(c)
		if occupied[ci] {
			return RunResult{}, fmt.Errorf("simhw: context %v assigned twice", c)
		}
		occupied[ci] = true
	}
	for _, st := range cfg.Stressors {
		if err := st.Truth.Validate(); err != nil {
			return RunResult{}, err
		}
		if !mt.Topo.ValidContext(st.Ctx) {
			return RunResult{}, fmt.Errorf("simhw: stressor context %v not on machine %s", st.Ctx, mt.Topo.Name)
		}
		ci := mt.Topo.ContextIndex(st.Ctx)
		if occupied[ci] {
			return RunResult{}, fmt.Errorf("simhw: stressor context %v already occupied", st.Ctx)
		}
		occupied[ci] = true
	}

	if err := tb.memorySockets(s, &cfg); err != nil {
		return RunResult{}, err
	}

	nAct := wt.activeCount(n)
	if nAct <= 0 {
		return RunResult{}, fmt.Errorf("simhw: workload %q has no active threads", wt.Name)
	}
	amdahl := amdahlSpeedup(wt.ParallelFrac, nAct)
	fInitWorkload := amdahl / float64(nAct)

	tb.socketFreqScales(s, &cfg, nAct)
	tb.buildAgents(s, &cfg, fInitWorkload, nAct)
	tb.fixedPoint(s, wt, nAct)

	return tb.assemble(s, &cfg, amdahl, nAct)
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

// buildAgents constructs the demand sources, the per-core occupancy of
// active agents and the per-core agent index.
func (tb *Testbed) buildAgents(s *runScratch, cfg *RunConfig, fInitWorkload float64, nAct int) {
	mt := &tb.truth
	wt := &cfg.Workload
	clear(s.coreOcc)

	// Cache pressure per socket drives the spill multiplier.
	pressure := s.pressure
	clear(pressure)
	for i, c := range cfg.Placement {
		if i < nAct {
			pressure[c.Socket] += wt.WorkingSetMB
		}
	}
	for _, st := range cfg.Stressors {
		pressure[st.Ctx.Socket] += st.Truth.WorkingSetMB
	}
	for sock := range s.dramMult {
		s.dramMult[sock] = mt.spillMultiplier(pressure[sock])
	}

	s.agents = s.agents[:0]
	for i, c := range cfg.Placement {
		s.addAgent(mt.Topo, c, wt, fInitWorkload, true, i < nAct)
	}
	for i := range cfg.Stressors {
		s.addAgent(mt.Topo, cfg.Stressors[i].Ctx, &cfg.Stressors[i].Truth, 1, false, true)
	}
	s.indexCores()
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
// saturation.
func phi(util, q float64) float64 {
	if util <= 0 {
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
// the run's scratch.
//
//pandia:noalloc
func (tb *Testbed) fixedPoint(s *runScratch, wt *WorkloadTruth, nAct int) {
	mt := &tb.truth
	q := mt.QueueFactor
	agents := s.agents
	table := &s.table
	dw := &s.demands
	memShare := safeDiv(1, float64(len(s.memSockets)), 1)
	table.setCapacities(mt, s.coreOcc, s.freqScale)

	for iter := 0; iter < maxFixedPointIters; iter++ {
		dw.walk(table, agents, s.memSockets, memShare)
		table.reset()
		for i := range agents {
			idx, d := dw.of(i)
			for k := range idx {
				table.add(idx[k], d[k], agents[i].workload)
			}
		}

		// Per-agent contention slowdown: worst over-subscription on the
		// agent's resource path.
		for i := range agents {
			a := &agents[i]
			if !a.active {
				a.sRes, a.sTot = 1, 1
				continue
			}
			sl := 1.0
			idx, d := dw.of(i)
			for k := range idx {
				if got := table.slowdown(idx[k], d[k], q, dw); got > sl {
					sl = got
				}
			}
			// Core-sharing burstiness: interference scaled by how busy the
			// co-runners are.
			if s.coreOcc[a.core] > 1 && a.burst > 0 {
				var coF float64
				for _, j := range s.coRunners(a.core) {
					if b := &agents[j]; i != j && b.active {
						coF += b.f
					}
				}
				sl += a.burst * sl * coF
			}
			a.sRes = sl
			a.sTot = sl
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
			for i := range agents {
				if agents[i].workload && agents[i].active {
					invSum += safeDiv(1, agents[i].sRes, 1)
				}
			}
			if invSum > 0 {
				for sock := range s.commPen {
					var pen float64
					for j := range agents {
						b := &agents[j]
						if !b.workload || !b.active || b.ctx.Socket == sock {
							continue
						}
						w := safeDiv(1, b.sRes, 1) / invSum
						pen += wt.CommCost * ((1 - wt.LoadBalance) + wt.LoadBalance*float64(nAct)*w)
					}
					s.commPen[sock] = pen
				}
				for i := range agents {
					a := &agents[i]
					if a.workload && a.active {
						a.sTot += s.commPen[a.ctx.Socket] * safeDiv(a.fInit, a.sRes, a.fInit)
					}
				}
			}
		}

		// Load balancing: without dynamic balancing every thread waits for
		// the slowest.
		if nAct > 1 {
			var sMax float64
			for i := range agents {
				if agents[i].workload && agents[i].active && agents[i].sTot > sMax {
					sMax = agents[i].sTot
				}
			}
			l := wt.LoadBalance
			for i := range agents {
				a := &agents[i]
				if a.workload && a.active {
					a.sTot = (1-l)*sMax + l*a.sTot
				}
			}
		}

		// Utilisation update with damping.
		var maxDelta float64
		for i := range agents {
			a := &agents[i]
			if !a.active {
				continue
			}
			// Synchronisation penalties idle the thread and shrink its
			// offered load; contention throttling does not (the demand is
			// still offered, just serviced slowly). Hence the utilisation
			// is the initial busy fraction scaled by the share of the
			// slowdown that contention accounts for, exactly as in the
			// paper's iteration (§5.4). Geometric damping keeps the map
			// contractive when penalties are stiff.
			target := a.fInit * safeDiv(a.sRes, a.sTot, 1)
			next := math.Sqrt(a.f * target)
			if d := math.Abs(next - a.f); d > maxDelta {
				maxDelta = d
			}
			a.f = next
		}
		if maxDelta < fixedPointTol {
			break
		}
	}
}

// assemble turns the converged agent state into a run result with noise and
// counters.
func (tb *Testbed) assemble(s *runScratch, cfg *RunConfig, amdahl float64, nAct int) (RunResult, error) {
	mt := &tb.truth
	wt := &cfg.Workload
	n := len(cfg.Placement)
	if nAct <= 0 || len(s.memSockets) == 0 {
		return RunResult{}, fmt.Errorf("simhw: internal: workload %q with no active threads or memory sockets", wt.Name)
	}

	growth := 1 + wt.WorkGrowth*float64(nAct-1)
	work := wt.SeqTime * growth

	var rateSum float64
	rates := make([]float64, n)
	for i := 0; i < n; i++ {
		a := &s.agents[i]
		if !a.active {
			continue
		}
		spd := 1.0
		if a.demand.Instr > 0 && wt.Demand.Instr > 0 {
			spd = a.demand.Instr / wt.Demand.Instr
		} else if a.demand.DRAM > 0 && wt.Demand.DRAM > 0 {
			spd = a.demand.DRAM / wt.Demand.DRAM
		}
		rates[i] = safeDiv(spd, a.sTot, 0)
		rateSum += rates[i]
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
	for i := 0; i < n; i++ {
		a := &s.agents[i]
		if !a.active {
			continue
		}
		b := wt.Demand.DRAM * share * a.dramMult
		dramBytes += b
		if s.memOn[a.ctx.Socket] {
			icBytes += 2 * b * remote
		} else {
			icBytes += 2 * b
		}
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
// configuration, so identical runs measure identical times.
func (tb *Testbed) noiseZ(s *runScratch, cfg *RunConfig) float64 {
	s.noiseKey = appendNoiseKey(s.noiseKey[:0], tb.truth.Topo.Name, cfg)
	s.hash.Reset()
	s.hash.Write(s.noiseKey)
	s.rng.Seed(int64(s.hash.Sum64()))
	return s.rng.NormFloat64()
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
