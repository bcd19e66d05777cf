package simhw

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"pandia/internal/counters"
	"pandia/internal/topology"
)

// refRun is Testbed.Run on the per-agent reference solver: the same
// validation, memory and clock set-up, then one class per agent, so every
// thread keeps its own state and every sum adds agent by agent.
func refRun(tb *Testbed, cfg RunConfig) (RunResult, error) {
	s := newRunScratch(tb.truth.Topo)
	amdahl, nAct, err := tb.setup(s, &cfg)
	if err != nil {
		return RunResult{}, err
	}
	refAgents(tb, s, &cfg, amdahl/float64(nAct), nAct)
	refFixedPoint(tb, s, &cfg.Workload, nAct)
	return refAssemble(tb, s, &cfg, amdahl, nAct)
}

// refAgents makes every agent a class of its own, in agent order.
func refAgents(tb *Testbed, s *runScratch, cfg *RunConfig, fInitWorkload float64, nAct int) {
	tb.spill(s, cfg, nAct)
	topo := tb.truth.Topo
	s.occupy(topo, cfg, nAct)
	s.classes = s.classes[:0]
	s.runs = s.runs[:0]
	for i, c := range cfg.Placement {
		s.join(i, s.newClass(topo, i, c, &cfg.Workload, fInitWorkload, true, i < nAct, 1))
	}
	for j := range cfg.Stressors {
		st := &cfg.Stressors[j]
		i := len(cfg.Placement) + j
		s.join(i, s.newClass(topo, i, st.Ctx, &st.Truth, 1, false, true, 1))
	}
}

// refFixedPoint is the per-agent fixed point: every resource of the table
// cleared each iteration, and every agent's demands, slowdown, penalties
// and update computed for that agent alone.
func refFixedPoint(tb *Testbed, s *runScratch, wt *WorkloadTruth, nAct int) {
	mt := &tb.truth
	q := mt.QueueFactor
	agents := s.classes
	table := &s.table
	dw := &s.demands
	memShare := safeDiv(1, float64(len(s.memSockets)), 1)
	table.setCapacities(mt, s.coreOcc, s.freqScale)
	all := make([]int, table.size())
	for i := range all {
		all[i] = i
	}

	for iter := 0; iter < maxFixedPointIters; iter++ {
		refWalk(dw, table, agents, s.memSockets, memShare)
		refReset(table, all)
		for i := range agents {
			idx, d, _ := dw.of(i)
			for k := range idx {
				refNote(table, idx[k], d[k], agents[i].workload)
				table.add(idx[k], d[k], 1)
			}
		}

		for i := range agents {
			a := &agents[i]
			if !a.active {
				a.sRes, a.sTot = 1, 1
				continue
			}
			sl := 1.0
			idx, d, _ := dw.of(i)
			for k := range idx {
				if got := refSlowdown(table, idx[k], d[k], q, dw); got > sl {
					sl = got
				}
			}
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

		if wt.CommCost > 0 && nAct > 1 {
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

		var maxDelta float64
		for i := range agents {
			a := &agents[i]
			if !a.active {
				continue
			}
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

// refWalk rebuilds every agent's (resource, demand) pairs at its current
// utilisation, omitting a pair whose demand is not positive, each with
// one copy.
func refWalk(w *demandWalk, t *resTable, agents []class, memSockets []int, memShare float64) {
	w.n = 0
	put := func(idx int, d float64) {
		w.idx[w.n], w.d[w.n], w.m[w.n] = idx, d, 1
		w.n++
	}
	for i := range agents {
		w.mid[i], w.end[i] = w.n, w.n
		a := &agents[i]
		if !a.active {
			continue
		}
		f := a.f
		if d := a.demand.Instr * f; d > 0 {
			put(t.instrIdx(a.core), d)
		}
		if d := a.demand.L1 * f; d > 0 {
			put(t.l1Idx(a.core), d)
		}
		if d := a.demand.L2 * f; d > 0 {
			put(t.l2Idx(a.core), d)
		}
		if d := a.demand.L3 * f; d > 0 {
			put(t.l3LinkIdx(a.core), d)
		}
		w.mid[i] = w.n
		if d := a.demand.L3 * f; d > 0 {
			put(t.l3AggIdx(a.ctx.Socket), d)
		}
		if d := a.demand.DRAM * f * a.dramMult; d > 0 {
			if a.workload {
				for _, u := range memSockets {
					put(t.dramIdx(u), d*memShare)
					if u != a.ctx.Socket {
						put(t.icIdx(a.ctx.Socket, u), 2*d*memShare)
					}
				}
			} else {
				put(t.dramIdx(a.ctx.Socket), d)
			}
		}
		w.end[i] = w.n
	}
}

// refReset clears every shape field, the total and the slowdown memo
// (NaN: not yet classified) of the listed resources.
func refReset(t *resTable, idx []int) {
	for _, i := range idx {
		t.total[i] = 0
		t.minD[i] = math.Inf(1)
		t.maxD[i] = 0
		t.count[i] = 0
		t.stress[i] = 0
		t.slow[i] = math.NaN()
	}
}

// refNote records a user offering demand d > 0 on resource idx in its
// shape: extremes, user count and stressor count.
func refNote(t *resTable, idx int, d float64, isWorkload bool) {
	if d <= 0 {
		return
	}
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

// refSlowdown classifies resource idx on its first use in an iteration and
// returns the slowdown of a user offering demand d there.
func refSlowdown(t *resTable, idx int, d, q float64, dw *demandWalk) float64 {
	if math.IsNaN(t.slow[idx]) {
		t.classify(idx, q, dw)
	}
	if s := t.slow[idx]; s != 0 {
		return s
	}
	return t.waterfilled(idx, d)
}

// refAssemble is the per-agent assembly: every sum adds thread by thread.
func refAssemble(tb *Testbed, s *runScratch, cfg *RunConfig, amdahl float64, nAct int) (RunResult, error) {
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
		a := &s.classes[i]
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
	sigma := mt.NoiseSigma
	if wt.NoiseSigma > 0 {
		sigma = wt.NoiseSigma
	}
	if sigma > 0 {
		t *= math.Exp(sigma * tb.noiseZ(s, cfg))
	}

	var dramBytes, icBytes float64
	remote := float64(len(s.memSockets)-1) / float64(len(s.memSockets))
	share := work / float64(nAct)
	for i := 0; i < n; i++ {
		a := &s.classes[i]
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

// sameAsReference runs cfg on both solvers and reports a difference in
// any result bit or error string.
func sameAsReference(t *testing.T, tb *Testbed, cfg RunConfig, what string) {
	t.Helper()
	res, err := tb.Run(cfg)
	got := digestResult(nil, res, err)
	res, err = refRun(tb, cfg)
	want := digestResult(nil, res, err)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: class solver differs from the per-agent reference\n got %x\nwant %x", what, got, want)
	}
}

// sortedTruths returns the presets in key order.
func sortedTruths() []MachineTruth {
	truths := Truths()
	keys := make([]string, 0, len(truths))
	for k := range truths {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]MachineTruth, len(keys))
	for i, k := range keys {
		out[i] = truths[k]
	}
	return out
}

// TestTestbedClassesMatchReference holds the class solver to the per-agent
// reference over both golden corpora on every preset.
func TestTestbedClassesMatchReference(t *testing.T) {
	for _, mt := range sortedTruths() {
		tb, err := NewTestbed(mt)
		if err != nil {
			t.Fatal(err)
		}
		corpus := append(goldenCorpus(mt), goldenInterleavedCorpus(mt)...)
		for i, cfg := range corpus {
			sameAsReference(t, tb, cfg, fmt.Sprintf("%s corpus entry %d", mt.Topo.Name, i))
		}
	}
}

// FuzzTestbedClasses compares the class solver with the per-agent
// reference on arbitrary runs: any preset, placements in any context order
// (order picks contexts by index, repeats skipped), stressors on free
// contexts or on the SMT siblings of workload threads, active-thread caps,
// memory binding and every power mode.
func FuzzTestbedClasses(f *testing.F) {
	f.Add(uint8(0), []byte{0, 2, 4, 1, 3}, []byte{}, uint8(0), uint8(0), uint8(0), int64(0))
	f.Add(uint8(1), []byte{0, 36, 1, 37, 2, 38, 3, 39, 4}, []byte{0x81, 2}, uint8(5), uint8(0), uint8(1), int64(3))
	f.Add(uint8(2), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, []byte{0x80, 0x83, 0x44}, uint8(3), uint8(2), uint8(2), int64(7))
	f.Add(uint8(3), []byte{0, 24, 48, 72, 1, 25, 49, 73, 2, 26}, []byte{0x82, 0x86, 0x01}, uint8(7), uint8(5), uint8(1), int64(-1))
	f.Add(uint8(4), []byte{0, 4, 1, 5, 2, 6}, []byte{}, uint8(3), uint8(1), uint8(0), int64(11))
	f.Add(uint8(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, []byte{0x80}, uint8(19), uint8(3), uint8(2), int64(2))
	truths := sortedTruths()
	beds := make([]*Testbed, len(truths))
	for i, mt := range truths {
		tb, err := NewTestbed(mt)
		if err != nil {
			f.Fatal(err)
		}
		beds[i] = tb
	}
	wls := append(goldenWorkloads(), WorkloadTruth{
		Name: "fuzz-light", SeqTime: 100, ParallelFrac: 1,
		Demand:   counters.Rates{Instr: 0.5, L3: 2, DRAM: 4},
		CommCost: 0.01, LoadBalance: 0.5, Burstiness: 0.4, MemBoundFrac: 1,
	}, WorkloadTruth{
		Name: "fuzz-stream", SeqTime: 20, ParallelFrac: 0.99,
		Demand:       counters.Rates{L2: 5, DRAM: 12},
		WorkingSetMB: 30, MemBoundFrac: 0.9,
	})
	f.Fuzz(func(t *testing.T, preset uint8, order, stress []byte, active, mem, power uint8, seed int64) {
		tb := beds[int(preset)%len(beds)]
		topo := tb.truth.Topo
		all := topo.Contexts()
		taken := make([]bool, len(all))
		var place []topology.Context
		for _, b := range order {
			if i := int(b) % len(all); !taken[i] {
				taken[i] = true
				place = append(place, all[i])
			}
		}
		if len(place) == 0 {
			return
		}
		wl := wls[int(seed&0xff)%len(wls)]
		if active > 0 {
			wl.ActiveThreads = int(active) % (len(place) + 1)
		}
		cfg := RunConfig{Workload: wl, Placement: place, Power: PowerMode(power % 3), Seed: seed}
		st := goldenStressors(tb.truth)
		for _, b := range stress {
			// High bit: the next slot on the core of the workload thread b
			// picks; otherwise the b-th free context.
			i := -1
			if b&0x80 != 0 && topo.ThreadsPerCore > 1 {
				c := place[int(b&0x7f)%len(place)]
				c.Slot = (c.Slot + 1) % topo.ThreadsPerCore
				i = topo.ContextIndex(c)
			} else {
				var free []int
				for k, on := range taken {
					if !on {
						free = append(free, k)
					}
				}
				if len(free) > 0 {
					i = free[int(b&0x7f)%len(free)]
				}
			}
			if i < 0 || taken[i] {
				continue
			}
			taken[i] = true
			cfg.Stressors = append(cfg.Stressors, PlacedStressor{Ctx: all[i], Truth: st[int(b)%len(st)]})
		}
		// mem: low bits bind sockets, bit 7 repeats socket 0 in the list.
		for sock := 0; sock < topo.Sockets && sock < 7; sock++ {
			if mem&(1<<sock) != 0 {
				cfg.Memory.BindSockets = append(cfg.Memory.BindSockets, sock)
			}
		}
		if mem&0x80 != 0 && len(cfg.Memory.BindSockets) > 0 {
			cfg.Memory.BindSockets = append(cfg.Memory.BindSockets, 0)
		}
		slices.Reverse(cfg.Memory.BindSockets)
		sameAsReference(t, tb, cfg, fmt.Sprintf("%s %+v", topo.Name, cfg))
	})
}
