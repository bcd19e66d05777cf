package simhw

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pandia/internal/counters"
	"pandia/internal/topology"
)

// toyWorkload is the workload of the paper's worked example (§4, Fig. 4):
// demand vector [7, 40], p = 0.9, os = 0.1, l = 0.5, b = 0.5, t1 = 1000 s.
func toyWorkload() WorkloadTruth {
	return WorkloadTruth{
		Name:         "toy-example",
		SeqTime:      1000,
		ParallelFrac: 0.9,
		Demand:       counters.Rates{Instr: 7, DRAM: 40},
		CommCost:     0.1,
		LoadBalance:  0.5,
		Burstiness:   0.5,
	}
}

func mustRun(t *testing.T, tb *Testbed, cfg RunConfig) RunResult {
	t.Helper()
	res, err := tb.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func toyBed(t *testing.T) *Testbed {
	t.Helper()
	tb, err := NewTestbed(ToyTruth())
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	return tb
}

func ctx(s, c, slot int) topology.Context { return topology.Context{Socket: s, Core: c, Slot: slot} }

func TestSingleThreadMatchesSeqTime(t *testing.T) {
	tb := toyBed(t)
	res := mustRun(t, tb, RunConfig{Workload: toyWorkload(), Placement: []topology.Context{ctx(0, 0, 0)}})
	if math.Abs(res.Time-1000) > 1e-9 {
		t.Errorf("solo time = %g, want 1000 (paper run 1)", res.Time)
	}
	d := res.Sample.PerThreadRates()
	if math.Abs(d.Instr-7) > 1e-9 || math.Abs(d.DRAM-40) > 1e-9 {
		t.Errorf("measured demand = %+v, want instr=7 dram=40", d)
	}
	if res.Sample.InterconnectBytes != 0 {
		t.Errorf("single-socket run crossed the interconnect: %g bytes", res.Sample.InterconnectBytes)
	}
}

func TestTwoThreadsAmdahl(t *testing.T) {
	// Paper run 2: two threads, one per core on socket 0, no contention:
	// t2 = 550 s for p = 0.9.
	tb := toyBed(t)
	res := mustRun(t, tb, RunConfig{
		Workload:  toyWorkload(),
		Placement: []topology.Context{ctx(0, 0, 0), ctx(0, 1, 0)},
	})
	if math.Abs(res.Time-550) > 1 {
		t.Errorf("two-thread time = %g, want 550 (paper run 2)", res.Time)
	}
}

func TestCrossSocketRunSlower(t *testing.T) {
	// Paper run 3: the same two threads split across sockets communicate
	// over the interconnect and are slower (paper's illustration: 800 s).
	tb := toyBed(t)
	split := mustRun(t, tb, RunConfig{
		Workload:  toyWorkload(),
		Placement: []topology.Context{ctx(0, 0, 0), ctx(1, 0, 0)},
	})
	if split.Time <= 550+1 {
		t.Errorf("cross-socket time = %g, want noticeably above the 550 same-socket time", split.Time)
	}
	if split.Time >= 1000 {
		t.Errorf("cross-socket time = %g, two threads should still beat one", split.Time)
	}
	if split.Sample.InterconnectBytes <= 0 {
		t.Error("cross-socket run reported no interconnect traffic")
	}
}

func TestWorkedExamplePlacementIsBad(t *testing.T) {
	// Paper §5.5: placing three threads as (U,V sharing a core on socket 0,
	// W on socket 1) saturates the interconnect; predicted speedup 1.005.
	tb := toyBed(t)
	res := mustRun(t, tb, RunConfig{
		Workload:  toyWorkload(),
		Placement: []topology.Context{ctx(0, 0, 0), ctx(0, 0, 1), ctx(1, 0, 0)},
	})
	speedup := 1000 / res.Time
	if speedup < 0.8 || speedup > 1.45 {
		t.Errorf("worked-example speedup = %.3f, want close to 1 (paper: 1.005)", speedup)
	}
}

func TestSMTAggregateThroughput(t *testing.T) {
	// Two instruction-saturating threads on one core achieve the SMT
	// aggregate throughput, not 2x solo (§3.2).
	mt := X32Truth()
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	stress := WorkloadTruth{
		Name: "cpu-stress", SeqTime: 1, ParallelFrac: 1,
		Demand: counters.Rates{Instr: 1e4},
	}
	solo := mustRun(t, tb, RunConfig{Workload: stress, Placement: []topology.Context{ctx(0, 0, 0)}})
	duo := mustRun(t, tb, RunConfig{
		Workload:  stress,
		Placement: []topology.Context{ctx(0, 0, 0), ctx(0, 0, 1)},
	})
	soloRate := solo.Sample.Rates().Instr
	duoRate := duo.Sample.Rates().Instr
	wantSolo := mt.CoreInstrRate
	if rel := math.Abs(soloRate-wantSolo) / wantSolo; rel > 0.1 {
		t.Errorf("solo instruction rate = %g, want about %g", soloRate, wantSolo)
	}
	ratio := duoRate / soloRate
	if ratio < 1.05 || ratio > mt.SMTAggFactor+0.05 {
		t.Errorf("SMT aggregate ratio = %.3f, want in (1.05, %.2f]", ratio, mt.SMTAggFactor+0.05)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// A DRAM-saturating stress measures approximately the DRAM capacity
	// regardless of how far demand exceeds it.
	mt := X32Truth()
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	for _, demand := range []float64{1e3, 1e5} {
		stress := WorkloadTruth{
			Name: "dram-stress", SeqTime: 1, ParallelFrac: 1,
			Demand:       counters.Rates{Instr: 0.1, DRAM: demand},
			WorkingSetMB: 100 * mt.L3SizeMB,
			MemBoundFrac: 1,
		}
		res := mustRun(t, tb, RunConfig{Workload: stress, Placement: []topology.Context{ctx(0, 0, 0)}})
		got := res.Sample.Rates().DRAM
		if got > mt.DRAMBW*1.01 || got < mt.DRAMBW*0.85 {
			t.Errorf("demand %g: measured DRAM bw = %g, want within [0.85,1.01]x of cap %g", demand, got, mt.DRAMBW)
		}
	}
}

func TestTurboFrequencies(t *testing.T) {
	mt := X52Truth()
	if got := mt.Frequency(1, PowerTurbo); got != mt.TurboMaxGHz {
		t.Errorf("1 active core turbo = %g, want %g", got, mt.TurboMaxGHz)
	}
	if got := mt.Frequency(mt.Topo.CoresPerSocket, PowerTurbo); got != mt.TurboAllGHz {
		t.Errorf("all active cores turbo = %g, want %g", got, mt.TurboAllGHz)
	}
	if got := mt.Frequency(3, PowerNominal); got != mt.NominalGHz {
		t.Errorf("nominal = %g, want %g", got, mt.NominalGHz)
	}
	if got := mt.Frequency(1, PowerFilled); got != mt.TurboAllGHz {
		t.Errorf("filled = %g, want all-core %g", got, mt.TurboAllGHz)
	}
	mid := mt.Frequency(9, PowerTurbo)
	if mid <= mt.TurboAllGHz || mid >= mt.TurboMaxGHz {
		t.Errorf("mid-load turbo = %g, want strictly between %g and %g", mid, mt.TurboAllGHz, mt.TurboMaxGHz)
	}
}

func TestTurboAffectsComputeBoundRun(t *testing.T) {
	mt := X52Truth()
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadTruth{
		Name: "compute", SeqTime: 100, ParallelFrac: 1,
		Demand: counters.Rates{Instr: 5},
	}
	place := []topology.Context{ctx(0, 0, 0)}
	filled := mustRun(t, tb, RunConfig{Workload: w, Placement: place, Power: PowerFilled})
	turbo := mustRun(t, tb, RunConfig{Workload: w, Placement: place, Power: PowerTurbo})
	nominal := mustRun(t, tb, RunConfig{Workload: w, Placement: place, Power: PowerNominal})
	if !(turbo.Time < filled.Time && filled.Time < nominal.Time) {
		t.Errorf("want turbo (%g) < filled (%g) < nominal (%g)", turbo.Time, filled.Time, nominal.Time)
	}
	wantBoost := mt.TurboMaxGHz / mt.TurboAllGHz
	if got := filled.Time / turbo.Time; math.Abs(got-wantBoost) > 0.02 {
		t.Errorf("solo turbo boost = %.3f, want about %.3f", got, wantBoost)
	}
}

func TestMemoryBoundIgnoresFrequency(t *testing.T) {
	mt := X52Truth()
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadTruth{
		Name: "membound", SeqTime: 100, ParallelFrac: 1,
		Demand:       counters.Rates{Instr: 1, DRAM: 20},
		MemBoundFrac: 1,
	}
	place := []topology.Context{ctx(0, 0, 0)}
	turbo := mustRun(t, tb, RunConfig{Workload: w, Placement: place, Power: PowerTurbo})
	nominal := mustRun(t, tb, RunConfig{Workload: w, Placement: place, Power: PowerNominal})
	if math.Abs(turbo.Time-nominal.Time) > 1e-6 {
		t.Errorf("memory-bound run moved with frequency: turbo %g vs nominal %g", turbo.Time, nominal.Time)
	}
}

func TestDeterminismAndNoise(t *testing.T) {
	tb, err := NewTestbed(X32Truth())
	if err != nil {
		t.Fatal(err)
	}
	w := toyWorkload()
	w.Demand = counters.Rates{Instr: 3, DRAM: 10}
	cfg := RunConfig{Workload: w, Placement: []topology.Context{ctx(0, 0, 0), ctx(0, 1, 0)}}
	a := mustRun(t, tb, cfg)
	b := mustRun(t, tb, cfg)
	if a.Time != b.Time {
		t.Errorf("identical runs measured different times: %g vs %g", a.Time, b.Time)
	}
	cfg2 := cfg
	cfg2.Seed = 7
	c := mustRun(t, tb, cfg2)
	if c.Time == a.Time {
		t.Error("different seeds measured identical times; noise not applied")
	}
	if rel := math.Abs(c.Time-a.Time) / a.Time; rel > 0.2 {
		t.Errorf("noise moved the time by %.1f%%, implausibly large", rel*100)
	}
}

func TestCacheSpillIncreasesDRAMTraffic(t *testing.T) {
	mt := X32Truth() // 20 MB L3 per socket
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadTruth{
		Name: "bigws", SeqTime: 100, ParallelFrac: 1,
		Demand:       counters.Rates{Instr: 1, DRAM: 5},
		WorkingSetMB: 8,
	}
	packed := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{
		ctx(0, 0, 0), ctx(0, 1, 0), ctx(0, 2, 0), ctx(0, 3, 0),
	}})
	spread := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{
		ctx(0, 0, 0), ctx(0, 1, 0), ctx(1, 0, 0), ctx(1, 1, 0),
	}})
	if packed.Sample.DRAMBytes <= spread.Sample.DRAMBytes {
		t.Errorf("packed DRAM bytes %g <= spread %g; spill missing",
			packed.Sample.DRAMBytes, spread.Sample.DRAMBytes)
	}
}

func TestSpillMultiplierShape(t *testing.T) {
	adaptive := X32Truth()
	cliff := X24Truth()
	if got := adaptive.spillMultiplier(adaptive.L3SizeMB * 0.5); got != 1 {
		t.Errorf("below-capacity spill multiplier = %g, want 1", got)
	}
	a := adaptive.spillMultiplier(adaptive.L3SizeMB * 1.2)
	c := cliff.spillMultiplier(cliff.L3SizeMB * 1.2)
	if a <= 1 || c <= 1 {
		t.Fatalf("overflow did not raise multipliers: adaptive %g cliff %g", a, c)
	}
	if c <= a {
		t.Errorf("non-adaptive cliff (%g) should exceed adaptive response (%g) near the edge", c, a)
	}
	if got := (&MachineTruth{}).spillMultiplier(100); got != 1 {
		t.Errorf("cache-less machine spill = %g, want 1", got)
	}
}

func TestWorkGrowth(t *testing.T) {
	tb := toyBed(t)
	w := toyWorkload()
	w.WorkGrowth = 0.2
	w.Demand = counters.Rates{Instr: 2, DRAM: 5} // stay uncontended
	w.CommCost = 0
	one := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{ctx(0, 0, 0)}})
	two := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{ctx(0, 0, 0), ctx(0, 1, 0)}})
	if got, want := two.Sample.Instructions/one.Sample.Instructions, 1.2; math.Abs(got-want) > 1e-9 {
		t.Errorf("instruction growth = %g, want %g", got, want)
	}
}

func TestActiveThreadsCap(t *testing.T) {
	tb := toyBed(t)
	w := toyWorkload()
	w.ActiveThreads = 1
	w.CommCost = 0
	one := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{ctx(0, 0, 0)}})
	four := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{
		ctx(0, 0, 0), ctx(0, 1, 0), ctx(1, 0, 0), ctx(1, 1, 0),
	}})
	// Extra idle threads must not speed the run up; spreading the memory
	// may slow it slightly.
	if four.Time < one.Time*0.99 {
		t.Errorf("idle threads sped the workload up: %g -> %g", one.Time, four.Time)
	}
	if got := four.ThreadRates[1]; got != 0 {
		t.Errorf("idle thread reported progress %g", got)
	}
}

func TestStressorSlowsWorkload(t *testing.T) {
	mt := X32Truth()
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadTruth{
		Name: "victim", SeqTime: 100, ParallelFrac: 1,
		Demand:     counters.Rates{Instr: 6},
		Burstiness: 0.3,
	}
	cpuStress := WorkloadTruth{
		Name: "cpu-stress", SeqTime: 1, ParallelFrac: 1,
		Demand: counters.Rates{Instr: 1e4},
	}
	alone := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{ctx(0, 0, 0)}})
	contended := mustRun(t, tb, RunConfig{
		Workload:  w,
		Placement: []topology.Context{ctx(0, 0, 0)},
		Stressors: []PlacedStressor{{Ctx: ctx(0, 0, 1), Truth: cpuStress}},
	})
	if contended.Time <= alone.Time*1.05 {
		t.Errorf("co-located CPU stress barely slowed the workload: %g -> %g", alone.Time, contended.Time)
	}
}

func TestMemoryBinding(t *testing.T) {
	mt := ToyTruth()
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	w := toyWorkload()
	w.CommCost = 0
	w.Demand = counters.Rates{Instr: 1, DRAM: 40}
	local := mustRun(t, tb, RunConfig{Workload: w, Placement: []topology.Context{ctx(0, 0, 0)}})
	remote := mustRun(t, tb, RunConfig{
		Workload:  w,
		Placement: []topology.Context{ctx(0, 0, 0)},
		Memory:    MemPolicy{BindSockets: []int{1}},
	})
	if remote.Sample.InterconnectBytes <= local.Sample.InterconnectBytes {
		t.Error("binding memory remotely produced no interconnect traffic")
	}
	// 40 demand fully remote counts 2x on the 50-capacity link: saturated.
	if remote.Time <= local.Time*1.2 {
		t.Errorf("remote memory time %g not clearly above local %g", remote.Time, local.Time)
	}
}

func TestRunValidation(t *testing.T) {
	tb := toyBed(t)
	w := toyWorkload()
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"empty placement", RunConfig{Workload: w}},
		{"bad context", RunConfig{Workload: w, Placement: []topology.Context{ctx(5, 0, 0)}}},
		{"duplicate context", RunConfig{Workload: w, Placement: []topology.Context{ctx(0, 0, 0), ctx(0, 0, 0)}}},
		{"stressor collision", RunConfig{
			Workload:  w,
			Placement: []topology.Context{ctx(0, 0, 0)},
			Stressors: []PlacedStressor{{Ctx: ctx(0, 0, 0), Truth: w}},
		}},
		{"bad bind socket", RunConfig{
			Workload:  w,
			Placement: []topology.Context{ctx(0, 0, 0)},
			Memory:    MemPolicy{BindSockets: []int{9}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tb.Run(tc.cfg); err == nil {
				t.Error("invalid run accepted")
			}
		})
	}
}

func TestTruthValidation(t *testing.T) {
	good := toyWorkload()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	for name, mutate := range map[string]func(*WorkloadTruth){
		"zero time":    func(w *WorkloadTruth) { w.SeqTime = 0 },
		"bad p":        func(w *WorkloadTruth) { w.ParallelFrac = 1.4 },
		"bad l":        func(w *WorkloadTruth) { w.LoadBalance = -0.1 },
		"neg burst":    func(w *WorkloadTruth) { w.Burstiness = -1 },
		"neg comm":     func(w *WorkloadTruth) { w.CommCost = -1 },
		"neg growth":   func(w *WorkloadTruth) { w.WorkGrowth = -0.5 },
		"bad membound": func(w *WorkloadTruth) { w.MemBoundFrac = 2 },
		"neg active":   func(w *WorkloadTruth) { w.ActiveThreads = -1 },
		"neg demand":   func(w *WorkloadTruth) { w.Demand.DRAM = -1 },
		"NaN time":     func(w *WorkloadTruth) { w.SeqTime = math.NaN() },
		"Inf time":     func(w *WorkloadTruth) { w.SeqTime = math.Inf(1) },
		"NaN p":        func(w *WorkloadTruth) { w.ParallelFrac = math.NaN() },
		"NaN l":        func(w *WorkloadTruth) { w.LoadBalance = math.NaN() },
		"Inf comm":     func(w *WorkloadTruth) { w.CommCost = math.Inf(1) },
		"NaN burst":    func(w *WorkloadTruth) { w.Burstiness = math.NaN() },
		"Inf growth":   func(w *WorkloadTruth) { w.WorkGrowth = math.Inf(1) },
		"NaN membound": func(w *WorkloadTruth) { w.MemBoundFrac = math.NaN() },
		"NaN ws":       func(w *WorkloadTruth) { w.WorkingSetMB = math.NaN() },
		"Inf noise":    func(w *WorkloadTruth) { w.NoiseSigma = math.Inf(1) },
		"NaN demand":   func(w *WorkloadTruth) { w.Demand.L2 = math.NaN() },
		"Inf demand":   func(w *WorkloadTruth) { w.Demand.Instr = math.Inf(1) },
	} {
		w := toyWorkload()
		mutate(&w)
		if w.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Non-finite fields are rejected by name.
	w := toyWorkload()
	w.ParallelFrac = math.NaN()
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "NaN ParallelFrac") {
		t.Errorf("NaN parallel fraction: error %v does not name the field", err)
	}
	w = toyWorkload()
	w.Demand.DRAM = math.Inf(-1)
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "infinite Demand.DRAM -Inf") {
		t.Errorf("-Inf DRAM demand: error %v does not name the field", err)
	}

	for name, mt := range map[string]MachineTruth{
		"zero instr": {Topo: topology.X32(), DRAMBW: 1, InterconnectBW: 1, NominalGHz: 1, TurboMaxGHz: 1, TurboAllGHz: 1, SMTAggFactor: 1},
		"bad smt":    func() MachineTruth { m := X32Truth(); m.SMTAggFactor = 3; return m }(),
		"no dram":    func() MachineTruth { m := X32Truth(); m.DRAMBW = 0; return m }(),
		"no ic":      func() MachineTruth { m := X32Truth(); m.InterconnectBW = 0; return m }(),
		"bad freq":   func() MachineTruth { m := X32Truth(); m.TurboAllGHz = m.TurboMaxGHz + 1; return m }(),
		"neg queue":  func() MachineTruth { m := X32Truth(); m.QueueFactor = -1; return m }(),
		"neg l1":     func() MachineTruth { m := X32Truth(); m.L1BW = -5; return m }(),
		"NaN instr":  func() MachineTruth { m := X32Truth(); m.CoreInstrRate = math.NaN(); return m }(),
		"NaN smt":    func() MachineTruth { m := X32Truth(); m.SMTAggFactor = math.NaN(); return m }(),
		"NaN dram":   func() MachineTruth { m := X32Truth(); m.DRAMBW = math.NaN(); return m }(),
		"Inf dram":   func() MachineTruth { m := X32Truth(); m.DRAMBW = math.Inf(1); return m }(),
		"NaN ic":     func() MachineTruth { m := X32Truth(); m.InterconnectBW = math.NaN(); return m }(),
		"NaN l1":     func() MachineTruth { m := X32Truth(); m.L1BW = math.NaN(); return m }(),
		"Inf l3agg":  func() MachineTruth { m := X32Truth(); m.L3AggBW = math.Inf(1); return m }(),
		"NaN nom":    func() MachineTruth { m := X32Truth(); m.NominalGHz = math.NaN(); return m }(),
		"Inf turbo":  func() MachineTruth { m := X32Truth(); m.TurboMaxGHz = math.Inf(1); return m }(),
		"NaN allcor": func() MachineTruth { m := X32Truth(); m.TurboAllGHz = math.NaN(); return m }(),
		"NaN l3size": func() MachineTruth { m := X32Truth(); m.L3SizeMB = math.NaN(); return m }(),
		"NaN queue":  func() MachineTruth { m := X32Truth(); m.QueueFactor = math.NaN(); return m }(),
		"Inf noise":  func() MachineTruth { m := X32Truth(); m.NoiseSigma = math.Inf(1); return m }(),
	} {
		if _, err := NewTestbed(mt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	m := X32Truth()
	m.InterconnectBW = math.NaN()
	if _, err := NewTestbed(m); err == nil || !strings.Contains(err.Error(), "NaN InterconnectBW") {
		t.Errorf("NaN interconnect bandwidth: error %v does not name the field", err)
	}
}

func TestPhiProperties(t *testing.T) {
	if got := phi(0.3, 0.1); got != 1 {
		t.Errorf("phi below saturation = %g, want 1", got)
	}
	if got := phi(2, 0); got != 2 {
		t.Errorf("phi(2, q=0) = %g, want 2", got)
	}
	f := func(uq, qq uint16) bool {
		u := float64(uq) / 1000 // 0..65
		q := float64(qq%200) / 1000
		v := phi(u, q)
		if v < 1 {
			return false
		}
		// monotone in u
		return phi(u+0.1, q) >= v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding an idle context never speeds up a run; spreading demand
// over more cores (one thread per core) never slows a compute-bound
// workload down.
func TestQuickMoreCoresNoSlower(t *testing.T) {
	mt := X32Truth()
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadTruth{
		Name: "qscale", SeqTime: 10, ParallelFrac: 0.95,
		Demand: counters.Rates{Instr: 4, DRAM: 2},
	}
	prev := math.Inf(1)
	for n := 1; n <= 8; n++ {
		place := make([]topology.Context, n)
		for i := range place {
			place[i] = ctx(0, i, 0)
		}
		res := mustRun(t, tb, RunConfig{Workload: w, Placement: place})
		if res.Time > prev*1.001 {
			t.Errorf("adding a core slowed the run: n=%d time %g > %g", n, res.Time, prev)
		}
		prev = res.Time
	}
}

func TestMaxMinFairSharing(t *testing.T) {
	// A lightly-demanding workload thread sharing a socket with a
	// DRAM-saturating stressor keeps its allocation (max-min fairness):
	// its demand is far below the fair share, so it slows only marginally.
	mt := X32Truth()
	mt.NoiseSigma = 0
	tb, err := NewTestbed(mt)
	if err != nil {
		t.Fatal(err)
	}
	light := WorkloadTruth{
		Name: "light", SeqTime: 100, ParallelFrac: 1,
		Demand:       counters.Rates{Instr: 0.5, DRAM: 4}, // well under DRAMBW/2
		MemBoundFrac: 1,
	}
	hog := WorkloadTruth{
		Name: "dram-hog", SeqTime: 1, ParallelFrac: 1,
		Demand:       counters.Rates{Instr: 0.1, DRAM: 1e4},
		MemBoundFrac: 1,
	}
	alone := mustRun(t, tb, RunConfig{Workload: light, Placement: []topology.Context{ctx(0, 0, 0)}})
	beside := mustRun(t, tb, RunConfig{
		Workload:  light,
		Placement: []topology.Context{ctx(0, 0, 0)},
		Stressors: []PlacedStressor{{Ctx: ctx(0, 4, 0), Truth: hog}},
	})
	if ratio := beside.Time / alone.Time; ratio > 1.25 {
		t.Errorf("light thread slowed %.2fx beside a hog; max-min fairness should protect it", ratio)
	}
}

func TestWaterfill(t *testing.T) {
	// Demands 2, 4, 100 on capacity 10: the small demands fit (2+4=6),
	// theta = 4 remaining for the hog.
	th := waterfill([]float64{100, 2, 4}, 10)
	if math.Abs(th-4) > 1e-12 {
		t.Errorf("waterfill = %g, want 4", th)
	}
	// Equal demands: theta = c/k.
	th = waterfill([]float64{9, 9, 9}, 9)
	if math.Abs(th-3) > 1e-12 {
		t.Errorf("waterfill equal = %g, want 3", th)
	}
	if got := waterfill(nil, 5); got != 5 {
		t.Errorf("waterfill empty = %g, want capacity", got)
	}
}

func TestTruthJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for key, mt := range Truths() {
		path := dir + "/" + key + ".json"
		if err := SaveTruth(mt, path); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		back, err := LoadTruth(path)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if back != mt {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", key, back, mt)
		}
	}
	if _, err := LoadTruth(dir + "/missing.json"); err == nil {
		t.Error("loading missing truth succeeded")
	}
	// Invalid truths are rejected at load.
	bad := ToyTruth()
	bad.DRAMBW = 0
	path := dir + "/bad.json"
	if err := SaveTruth(bad, path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTruth(path); err == nil {
		t.Error("invalid truth accepted at load")
	}
}
