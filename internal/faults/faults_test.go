package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pandia/internal/counters"
	"pandia/internal/simhw"
	"pandia/internal/topology"
)

func testbed(t *testing.T) *simhw.Testbed {
	t.Helper()
	tb, err := simhw.NewTestbed(simhw.X32Truth())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func testWorkload() simhw.WorkloadTruth {
	return simhw.WorkloadTruth{
		Name:         "ft",
		SeqTime:      100,
		ParallelFrac: 0.95,
		Demand:       counters.Rates{Instr: 3, L1: 20, DRAM: 4},
		WorkingSetMB: 8,
		LoadBalance:  0.8,
	}
}

func soloCfg(seed int64) simhw.RunConfig {
	return simhw.RunConfig{
		Workload:  testWorkload(),
		Placement: []topology.Context{{Socket: 0, Core: 0, Slot: 0}},
		Seed:      seed,
	}
}

func TestZeroConfigPassThrough(t *testing.T) {
	tb := testbed(t)
	in, err := New(tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := soloCfg(1)
	want, err := tb.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := in.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Sample != want.Sample {
		t.Errorf("pass-through changed the result: got %+v want %+v", got, want)
	}
	if in.Machine().Name != tb.Machine().Name || in.L3SizeMB() != tb.L3SizeMB() {
		t.Error("pass-through changed the machine shape")
	}
}

// TestFaultStreamMatchesFormat pins the per-run fault stream to the
// derivation the injector has always used, the fmt-formatted key hashed
// with fnv64a seeding rand.NewSource, so every recorded fault pattern and
// noise-resilience figure stays put.
func TestFaultStreamMatchesFormat(t *testing.T) {
	reference := func(seed int64, cfg *simhw.RunConfig) *rand.Rand {
		h := fnv.New64a()
		_, _ = fmt.Fprintf(h, "faults|%d|%s|%d|%d|", seed, cfg.Workload.Name, cfg.Power, cfg.Seed)
		for _, c := range cfg.Placement {
			_, _ = fmt.Fprintf(h, "%d.%d.%d,", c.Socket, c.Core, c.Slot)
		}
		for _, s := range cfg.Stressors {
			_, _ = fmt.Fprintf(h, "S%d.%d.%d:%s,", s.Ctx.Socket, s.Ctx.Core, s.Ctx.Slot, s.Truth.Name)
		}
		for _, b := range cfg.Memory.BindSockets {
			_, _ = fmt.Fprintf(h, "M%d,", b)
		}
		return rand.New(rand.NewSource(int64(h.Sum64())))
	}
	busy := soloCfg(-9)
	busy.Power = simhw.PowerFilled
	busy.Placement = append(busy.Placement, topology.Context{Socket: 1, Core: 3, Slot: 1})
	busy.Stressors = []simhw.PlacedStressor{{Ctx: topology.Context{Socket: 1, Core: 4}, Truth: simhw.WorkloadTruth{Name: "stream"}}}
	busy.Memory.BindSockets = []int{1, 0}
	for _, seed := range []int64{0, 1, -42, math.MaxInt64} {
		in, err := New(testbed(t), Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []simhw.RunConfig{soloCfg(1), soloCfg(math.MinInt64), busy} {
			got, want := in.rng(&cfg), reference(seed, &cfg)
			for i := 0; i < 16; i++ {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d, run seed %d: draw %d = %v, want %v", seed, cfg.Seed, i, g, w)
				}
			}
		}
	}
}

func TestInjectionDeterminism(t *testing.T) {
	tb := testbed(t)
	cfg := Uniform(0.3, 42)
	run := func() ([]float64, []error, Stats) {
		in, err := New(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		var errs []error
		for seed := int64(0); seed < 50; seed++ {
			res, err := in.Run(soloCfg(seed))
			times = append(times, res.Time)
			errs = append(errs, err)
		}
		return times, errs, in.Stats()
	}
	t1, e1, s1 := run()
	t2, e2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical sequences: %+v vs %+v", s1, s2)
	}
	for i := range t1 {
		sameErr := (e1[i] == nil) == (e2[i] == nil)
		if !sameErr || (e1[i] == nil && t1[i] != t2[i] && !(math.IsNaN(t1[i]) && math.IsNaN(t2[i]))) {
			t.Fatalf("run %d not deterministic: (%g,%v) vs (%g,%v)", i, t1[i], e1[i], t2[i], e2[i])
		}
	}
	if s1.Runs != 50 {
		t.Errorf("counted %d runs, want 50", s1.Runs)
	}
	if s1.Dropouts+s1.Corrupted+s1.Spikes+s1.Outliers+s1.Transients+s1.Hangs == 0 {
		t.Error("uniform 30% config injected nothing over 50 runs")
	}
}

func TestSeedDecorrelatesFaults(t *testing.T) {
	tb := testbed(t)
	in1, _ := New(tb, Uniform(0.5, 1))
	in2, _ := New(tb, Uniform(0.5, 2))
	same := true
	for seed := int64(0); seed < 30; seed++ {
		r1, e1 := in1.Run(soloCfg(seed))
		r2, e2 := in2.Run(soloCfg(seed))
		if (e1 == nil) != (e2 == nil) || (e1 == nil && r1.Time != r2.Time) {
			same = false
			break
		}
	}
	if same {
		t.Error("different injector seeds produced identical fault streams")
	}
}

func TestFaultClasses(t *testing.T) {
	tb := testbed(t)
	clean, err := tb.Run(soloCfg(1))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("hang", func(t *testing.T) {
		in, _ := New(tb, Config{Hang: 1, DeadlineSeconds: 77})
		_, err := in.Run(soloCfg(1))
		var hang *HangError
		if !errors.As(err, &hang) {
			t.Fatalf("got %v, want HangError", err)
		}
		if hang.Deadline != 77 {
			t.Errorf("deadline %g, want 77", hang.Deadline)
		}
		if st := in.Stats(); st.Hangs != 1 || st.HangCost != 77 {
			t.Errorf("stats %+v, want 1 hang costing 77", st)
		}
	})

	t.Run("transient", func(t *testing.T) {
		in, _ := New(tb, Config{Transient: 1})
		if _, err := in.Run(soloCfg(1)); !errors.Is(err, ErrTransient) {
			t.Fatalf("got %v, want ErrTransient", err)
		}
	})

	t.Run("outlier", func(t *testing.T) {
		in, _ := New(tb, Config{Outlier: 1, OutlierFactor: 4})
		res, err := in.Run(soloCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Time, clean.Time*4; math.Abs(got-want) > 1e-12*want {
			t.Errorf("outlier time %g, want %g", got, want)
		}
		if res.Sample.Elapsed != res.Time {
			t.Error("outlier left Sample.Elapsed inconsistent with Time")
		}
	})

	t.Run("spike", func(t *testing.T) {
		in, _ := New(tb, Config{Spike: 1, SpikeFactor: 1.5})
		res, err := in.Run(soloCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Time, clean.Time*1.5; math.Abs(got-want) > 1e-12*want {
			t.Errorf("spike time %g, want %g", got, want)
		}
	})

	t.Run("dropout", func(t *testing.T) {
		in, _ := New(tb, Config{Dropout: 1})
		res, err := in.Run(soloCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		zeroed := 0
		cleanFields := sampleFields(&clean.Sample)
		gotFields := sampleFields(&res.Sample)
		for i := range gotFields {
			if *cleanFields[i] > 0 && *gotFields[i] == 0 {
				zeroed++
			}
		}
		if zeroed == 0 {
			t.Errorf("dropout zeroed no populated level: %+v", res.Sample)
		}
		if err := res.Sample.Validate(); err != nil {
			t.Errorf("dropout must remain a valid-looking sample, got %v", err)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		in, _ := New(tb, Config{Corrupt: 1})
		res, err := in.Run(soloCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Sample.Validate(); err == nil {
			t.Errorf("corruption injected nothing detectable: %+v", res.Sample)
		}
	})
}

func TestFaultRatesRoughlyMatch(t *testing.T) {
	tb := testbed(t)
	in, _ := New(tb, Config{Dropout: 0.2, Seed: 7})
	const n = 400
	for seed := int64(0); seed < n; seed++ {
		if _, err := in.Run(soloCfg(seed)); err != nil {
			t.Fatal(err)
		}
	}
	got := float64(in.Stats().Dropouts) / n
	if got < 0.1 || got > 0.3 {
		t.Errorf("dropout rate %.3f far from configured 0.2", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dropout: -0.1},
		{Corrupt: 1.5},
		{Hang: math.NaN()},
		{SpikeFactor: math.Inf(1)},
		{DeadlineSeconds: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if err := Uniform(0.5, 1).Validate(); err != nil {
		t.Errorf("uniform config rejected: %v", err)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil runner accepted")
	}
}
