package simhw

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"pandia/internal/counters"
	"pandia/internal/topology"
)

// goldenTestbedDigest is the fnv64a digest of every result (and error
// message) of goldenCorpus over all Truths() presets. Any change to the
// testbed's arithmetic — a reordered sum, a fused expression, a different
// noise stream — moves it. Update it only for a deliberate change to the
// measurement model, never for a refactor or an optimisation.
const goldenTestbedDigest uint64 = 0xb3427fd1a47cb399

// goldenWorkloads spans the workload-side knobs of the testbed: demand at
// every hierarchy level, cache spill, communication, load balancing,
// burstiness, work growth, memory-boundedness, an active-thread cap and a
// workload-level noise override.
func goldenWorkloads() []WorkloadTruth {
	mixed := WorkloadTruth{
		Name: "golden-mixed", SeqTime: 100, ParallelFrac: 0.93,
		Demand:       counters.Rates{Instr: 4, L1: 30, L2: 12, L3: 8, DRAM: 9},
		WorkingSetMB: 6, CommCost: 0.02, LoadBalance: 0.4, Burstiness: 0.3,
		MemBoundFrac: 0.4,
	}
	dram := WorkloadTruth{
		Name: "golden-dram", SeqTime: 40, ParallelFrac: 0.98,
		Demand:       counters.Rates{Instr: 1, L3: 10, DRAM: 25},
		WorkingSetMB: 15, CommCost: 0.05, LoadBalance: 0.8, Burstiness: 0.1,
		WorkGrowth: 0.05, MemBoundFrac: 0.8,
	}
	capped := mixed
	capped.Name = "golden-capped"
	capped.ActiveThreads = 3
	capped.NoiseSigma = 0.03
	return []WorkloadTruth{mixed, dram, capped}
}

// goldenStressors returns stress applications for the corpus: a DRAM hog
// (beside a light workload it forces max-min water-filling), a core-local
// CPU stressor and a cache-thrashing L3 stressor.
func goldenStressors(mt MachineTruth) []WorkloadTruth {
	return []WorkloadTruth{
		{Name: "golden-dram-hog", SeqTime: 1, ParallelFrac: 1,
			Demand: counters.Rates{Instr: 0.1, DRAM: 1e4}, MemBoundFrac: 1},
		{Name: "golden-cpu", SeqTime: 1, ParallelFrac: 1,
			Demand: counters.Rates{Instr: 1e4}},
		{Name: "golden-l3", SeqTime: 1, ParallelFrac: 1,
			Demand:       counters.Rates{Instr: 0.5, L3: 500},
			WorkingSetMB: 2*mt.L3SizeMB + 1, Burstiness: 0.2},
	}
}

// goldenPlacements returns packed (dense-index order) and spread (socket
// round-robin, first slots first) placements of several sizes.
func goldenPlacements(topo topology.Machine) [][]topology.Context {
	dense := topo.Contexts()
	var spread []topology.Context
	for t := 0; t < topo.ThreadsPerCore; t++ {
		for c := 0; c < topo.CoresPerSocket; c++ {
			for s := 0; s < topo.Sockets; s++ {
				spread = append(spread, topology.Context{Socket: s, Core: c, Slot: t})
			}
		}
	}
	total := len(dense)
	var out [][]topology.Context
	for _, k := range []int{1, 2, topo.CoresPerSocket, total / 2, total} {
		if k < 1 || k > total {
			continue
		}
		out = append(out, dense[:k], spread[:k])
	}
	return out
}

// goldenCorpus is the fixed run corpus behind TestTestbedGoldenDigest: every
// placement × workload × power mode, with seeds and memory policies
// rotating, plus stressor mixes on the small placements and a set of
// invalid configurations (their error strings are part of the digest).
func goldenCorpus(mt MachineTruth) []RunConfig {
	topo := mt.Topo
	last := topo.Sockets - 1
	mems := []MemPolicy{{}, {BindSockets: []int{last}}, {BindSockets: []int{last, 0, last}}}
	powers := []PowerMode{PowerFilled, PowerTurbo, PowerNominal}
	var out []RunConfig
	k := 0
	for _, place := range goldenPlacements(topo) {
		for _, w := range goldenWorkloads() {
			for _, pm := range powers {
				out = append(out, RunConfig{
					Workload: w, Placement: place, Power: pm,
					Memory: mems[k%len(mems)], Seed: int64(k % 2 * 11),
				})
				k++
			}
		}
	}

	// Stressor mixes beside one or two workload threads, on contexts taken
	// from the far end of the machine plus the first thread's SMT sibling.
	dense := topo.Contexts()
	st := goldenStressors(mt)
	light := WorkloadTruth{
		Name: "golden-light", SeqTime: 100, ParallelFrac: 1,
		Demand:   counters.Rates{Instr: 0.5, L3: 2, DRAM: 4},
		CommCost: 0.01, LoadBalance: 0.5, Burstiness: 0.4, MemBoundFrac: 1,
	}
	// An instruction-free streaming workload (its progress rate derives
	// from DRAM demand) and a one-active-thread cap, whose idle thread
	// must stay out of the water-filling population.
	stream := WorkloadTruth{
		Name: "golden-stream", SeqTime: 20, ParallelFrac: 0.99,
		Demand:       counters.Rates{L2: 5, DRAM: 12},
		WorkingSetMB: 30, MemBoundFrac: 0.9,
	}
	solo := light
	solo.Name = "golden-solo"
	solo.ActiveThreads = 1
	for _, n := range []int{1, 2} {
		if n+3 > len(dense) {
			continue
		}
		place := dense[:n:n]
		if topo.ThreadsPerCore > 1 {
			// Threads on distinct cores so slot 1 of core 0 stays free.
			place = nil
			for i := 0; i < n; i++ {
				place = append(place, dense[i*topo.ThreadsPerCore])
			}
		}
		far := dense[len(dense)-1]
		farther := dense[len(dense)-2]
		mixes := [][]PlacedStressor{
			{{Ctx: far, Truth: st[0]}},
			{{Ctx: far, Truth: st[0]}, {Ctx: farther, Truth: st[2]}},
		}
		if topo.ThreadsPerCore > 1 {
			sib := topology.Context{Socket: 0, Core: 0, Slot: 1}
			mixes = append(mixes,
				[]PlacedStressor{{Ctx: sib, Truth: st[1]}},
				[]PlacedStressor{{Ctx: sib, Truth: st[1]}, {Ctx: far, Truth: st[0]}, {Ctx: farther, Truth: st[2]}})
		}
		for _, w := range []WorkloadTruth{light, goldenWorkloads()[0], stream, solo} {
			for _, mix := range mixes {
				for _, pm := range powers {
					out = append(out, RunConfig{
						Workload: w, Placement: place, Stressors: mix, Power: pm,
						Memory: mems[k%len(mems)], Seed: int64(k % 3),
					})
					k++
				}
			}
		}
	}

	// Invalid configurations: every early-exit error of Run.
	w := goldenWorkloads()[0]
	bad := w
	bad.SeqTime = 0
	c0 := dense[0]
	out = append(out,
		RunConfig{Workload: w},
		RunConfig{Workload: bad, Placement: []topology.Context{c0}},
		RunConfig{Workload: w, Placement: []topology.Context{{Socket: topo.Sockets}}},
		RunConfig{Workload: w, Placement: []topology.Context{c0, c0}},
		RunConfig{Workload: w, Placement: []topology.Context{c0},
			Stressors: []PlacedStressor{{Ctx: c0, Truth: st[1]}}},
		RunConfig{Workload: w, Placement: []topology.Context{c0},
			Stressors: []PlacedStressor{{Ctx: topology.Context{Slot: topo.ThreadsPerCore}, Truth: st[1]}}},
		RunConfig{Workload: w, Placement: []topology.Context{c0},
			Stressors: []PlacedStressor{{Ctx: dense[len(dense)-1], Truth: bad}}},
		RunConfig{Workload: w, Placement: []topology.Context{c0},
			Memory: MemPolicy{BindSockets: []int{topo.Sockets}}},
		RunConfig{Workload: w, Placement: []topology.Context{c0},
			Memory: MemPolicy{BindSockets: []int{-1}}},
	)
	return out
}

// digestResult folds one run's outcome into the running digest: every
// float by its exact bit pattern, so a one-ulp drift changes the sum.
func digestResult(buf []byte, res RunResult, err error) []byte {
	if err != nil {
		buf = append(buf, 'E')
		return append(buf, err.Error()...)
	}
	f := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	s := res.Sample
	f(res.Time)
	f(s.Elapsed)
	f(s.Instructions)
	f(s.L1Bytes)
	f(s.L2Bytes)
	f(s.L3Bytes)
	f(s.DRAMBytes)
	f(s.InterconnectBytes)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Threads))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(res.ThreadRates)))
	for _, r := range res.ThreadRates {
		f(r)
	}
	return buf
}

// goldenDigest runs the corpus on every preset (in key order) and returns
// the digest and the number of runs.
func goldenDigest(t *testing.T) (uint64, int) {
	t.Helper()
	truths := Truths()
	keys := make([]string, 0, len(truths))
	for k := range truths {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	runs := 0
	var buf []byte
	for _, key := range keys {
		tb, err := NewTestbed(truths[key])
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		for i, cfg := range goldenCorpus(truths[key]) {
			res, err := tb.Run(cfg)
			buf = append(buf[:0], fmt.Sprintf("%s#%d|", key, i)...)
			buf = digestResult(buf, res, err)
			h.Write(buf)
			runs++
		}
	}
	return h.Sum64(), runs
}

// TestTestbedGoldenDigest pins the testbed's results bit for bit over a
// corpus that covers every preset, power mode, memory binding, active-
// thread cap, work growth and stressor mixes reaching max-min water-filling.
func TestTestbedGoldenDigest(t *testing.T) {
	got, runs := goldenDigest(t)
	if got != goldenTestbedDigest {
		t.Fatalf("testbed digest over %d runs = %#016x, want %#016x: a change altered measured results", runs, got, goldenTestbedDigest)
	}
}
