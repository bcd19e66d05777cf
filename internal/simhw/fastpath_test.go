package simhw

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pandia/internal/topology"
)

// referenceNoiseKey builds the noise hash input with the fmt formats the
// testbed has always hashed; appendNoiseKey must match it byte for byte, or
// every noisy measurement moves.
func referenceNoiseKey(machine string, cfg *RunConfig) []byte {
	b := fmt.Appendf(nil, "%s|%s|%d|%d|", machine, cfg.Workload.Name, cfg.Power, cfg.Seed)
	for _, c := range cfg.Placement {
		b = fmt.Appendf(b, "%d.%d.%d,", c.Socket, c.Core, c.Slot)
	}
	for _, s := range cfg.Stressors {
		b = fmt.Appendf(b, "S%d.%d.%d:%s,", s.Ctx.Socket, s.Ctx.Core, s.Ctx.Slot, s.Truth.Name)
	}
	for _, m := range cfg.Memory.BindSockets {
		b = fmt.Appendf(b, "M%d,", m)
	}
	return b
}

func TestNoiseKeyMatchesFormat(t *testing.T) {
	check := func(machine string, cfg *RunConfig) bool {
		got := appendNoiseKey([]byte("stale"), machine, cfg)[len("stale"):]
		want := referenceNoiseKey(machine, cfg)
		if !bytes.Equal(got, want) {
			t.Errorf("noise key mismatch:\n got %q\nwant %q", got, want)
			return false
		}
		return true
	}
	// The golden corpus (stressors, memory binding, every power mode) and
	// edge values: extreme seeds, out-of-range power modes, names with
	// separators, format verbs and non-ASCII bytes.
	for key, mt := range Truths() {
		for i, cfg := range goldenCorpus(mt) {
			if !check(mt.Topo.Name, &cfg) {
				t.Fatalf("%s corpus entry %d", key, i)
			}
		}
	}
	w := goldenWorkloads()[0]
	w.Name = "a|b%d,ü\x00"
	edge := []RunConfig{
		{Workload: w, Seed: math.MinInt64, Power: PowerMode(-3)},
		{Workload: w, Seed: math.MaxInt64, Power: PowerMode(99),
			Placement: []topology.Context{{Socket: -1, Core: 12, Slot: 3}},
			Stressors: []PlacedStressor{{Ctx: topology.Context{Socket: 2}, Truth: WorkloadTruth{Name: ""}}},
			Memory:    MemPolicy{BindSockets: []int{-7, 0, 1 << 40}}},
	}
	for i := range edge {
		check("", &edge[i])
		check("X5-2 (Haswell)", &edge[i])
	}

	prop := func(machine, wname, sname string, power int8, seed int64, ctxs []int16, binds []int32) bool {
		cfg := RunConfig{Power: PowerMode(power), Seed: seed}
		cfg.Workload.Name = wname
		for i := 0; i+2 < len(ctxs); i += 3 {
			c := topology.Context{Socket: int(ctxs[i]), Core: int(ctxs[i+1]), Slot: int(ctxs[i+2])}
			if i%2 == 0 {
				cfg.Placement = append(cfg.Placement, c)
			} else {
				cfg.Stressors = append(cfg.Stressors, PlacedStressor{Ctx: c, Truth: WorkloadTruth{Name: sname}})
			}
		}
		for _, m := range binds {
			cfg.Memory.BindSockets = append(cfg.Memory.BindSockets, int(m))
		}
		return check(machine, &cfg)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestTestbedConcurrentRunsMatchSequential drives one Testbed from eight
// goroutines, each walking the golden corpus from a different offset and
// direction, and requires every result to equal the sequential one: pooled
// run scratch must never be shared between concurrent runs. make check runs
// it under the race detector.
func TestTestbedConcurrentRunsMatchSequential(t *testing.T) {
	for _, mt := range []MachineTruth{X32Truth(), X24Truth()} {
		tb, err := NewTestbed(mt)
		if err != nil {
			t.Fatal(err)
		}
		corpus := goldenCorpus(mt)
		want := make([][]byte, len(corpus))
		for i, cfg := range corpus {
			res, err := tb.Run(cfg)
			want[i] = digestResult(nil, res, err)
		}
		const workers = 8
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []byte
				for k := range corpus {
					i := (k + g*len(corpus)/workers) % len(corpus)
					if g%2 == 1 {
						i = len(corpus) - 1 - i
					}
					res, err := tb.Run(corpus[i])
					if buf = digestResult(buf[:0], res, err); !bytes.Equal(buf, want[i]) {
						t.Errorf("%s: goroutine %d, corpus entry %d: concurrent result differs from sequential", mt.Topo.Name, g, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestTestbedRunAllocs pins a steady-state run at the returned ThreadRates
// plus at most one allocation: run scratch comes from the pool, and the
// fixed-point iteration itself is proven allocation-free by alloccheck.
func TestTestbedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	mt := X52Truth()
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	st := goldenStressors(mt)
	all := mt.Topo.Contexts()
	cases := map[string]RunConfig{
		"all contexts": {Workload: goldenWorkloads()[0], Placement: all, Power: PowerTurbo, Seed: 3},
		"water-filling": {
			Workload:  goldenWorkloads()[1],
			Placement: all[:4],
			Stressors: []PlacedStressor{{Ctx: all[len(all)-1], Truth: st[0]}, {Ctx: all[len(all)-2], Truth: st[2]}},
			Memory:    MemPolicy{BindSockets: []int{1, 0}},
		},
	}
	for name, cfg := range cases {
		if _, err := tb.Run(cfg); err != nil { // warm the pool
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := tb.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: Run allocates %v per op; want at most 2 (ThreadRates plus one)", name, allocs)
		}
	}
}
