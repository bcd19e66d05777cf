// Package faults is a deterministic fault-injection layer for the profiling
// pipeline. It wraps any simhw.Runner and perturbs every observation the
// pipeline consumes, modelling the measurement pathologies of production
// contention data: counter dropout (a sample missing one or more levels),
// corrupted counter values (NaN/±Inf), multiplicative run-time noise spikes
// and whole-run outliers, transient run failures, and hung runs (modelled
// via a per-run virtual deadline — no wall-clock sleeping).
//
// Every fault decision derives from a seeded hash of the run configuration,
// so a given (Config, RunConfig) pair always faults the same way: the
// resilience experiments are exactly reproducible, and a retry that changes
// the run seed legitimately re-rolls the fault dice just as a real re-run
// re-samples the noise. The package also supplies the consumer-side
// counterpart (Measure): repeated measurement with median-of-k aggregation,
// MAD-based outlier rejection, and a bounded retry budget with virtual
// backoff accounting.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"pandia/internal/counters"
	"pandia/internal/simhw"
	"pandia/internal/topology"
)

// Config sets the per-run probability of each fault class. The zero value
// injects nothing and makes the Injector a transparent pass-through.
type Config struct {
	// Seed decorrelates the fault stream from the testbed's measurement
	// noise and from other injectors.
	Seed int64

	// Dropout is the probability that a returned sample loses one or more
	// counter levels (the fields read back as zero, as when a PMU
	// multiplexing slot never scheduled the event).
	Dropout float64
	// Corrupt is the probability that one counter field reads back as
	// NaN, +Inf, or -Inf.
	Corrupt float64
	// Spike is the probability of a moderate multiplicative run-time noise
	// spike of SpikeFactor.
	Spike float64
	// SpikeFactor is the spike multiplier; 0 means the default (1.5).
	SpikeFactor float64
	// Outlier is the probability of a whole-run outlier of OutlierFactor
	// (a paging storm, a co-tenant burst).
	Outlier float64
	// OutlierFactor is the outlier multiplier; 0 means the default (4).
	OutlierFactor float64
	// Transient is the probability that the run fails with ErrTransient.
	Transient float64
	// Hang is the probability that the run hangs: no result is returned,
	// and the caller is charged DeadlineSeconds of virtual machine time.
	Hang float64
	// DeadlineSeconds is the virtual per-run deadline charged for a hung
	// run; 0 means the default (1000).
	DeadlineSeconds float64
}

const (
	defaultSpikeFactor   = 1.5
	defaultOutlierFactor = 4.0
	defaultDeadline      = 1000.0
)

func (c Config) spikeFactor() float64 {
	if c.SpikeFactor > 0 {
		return c.SpikeFactor
	}
	return defaultSpikeFactor
}

func (c Config) outlierFactor() float64 {
	if c.OutlierFactor > 0 {
		return c.OutlierFactor
	}
	return defaultOutlierFactor
}

// Deadline returns the virtual deadline charged for hung runs.
func (c Config) Deadline() float64 {
	if c.DeadlineSeconds > 0 {
		return c.DeadlineSeconds
	}
	return defaultDeadline
}

// Validate reports whether every probability lies in [0,1] and every factor
// is finite and non-negative.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		val  float64
	}{
		{"dropout", c.Dropout},
		{"corrupt", c.Corrupt},
		{"spike", c.Spike},
		{"outlier", c.Outlier},
		{"transient", c.Transient},
		{"hang", c.Hang},
	} {
		if math.IsNaN(p.val) || p.val < 0 || p.val > 1 {
			return fmt.Errorf("faults: %s probability %g outside [0,1]", p.name, p.val)
		}
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"spikeFactor", c.SpikeFactor},
		{"outlierFactor", c.OutlierFactor},
		{"deadlineSeconds", c.DeadlineSeconds},
	} {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) || f.val < 0 {
			return fmt.Errorf("faults: non-finite or negative %s %g", f.name, f.val)
		}
	}
	return nil
}

// Uniform builds a config injecting every observation-corrupting fault class
// at the given base rate: dropout and outliers at rate, corruption and
// transient failures at rate/2, hangs at rate/4. It is the standard profile
// the noise-resilience experiment sweeps.
func Uniform(rate float64, seed int64) Config {
	return Config{
		Seed:      seed,
		Dropout:   rate,
		Corrupt:   rate / 2,
		Spike:     rate,
		Outlier:   rate,
		Transient: rate / 2,
		Hang:      rate / 4,
	}
}

// ErrTransient is returned for an injected transient run failure.
var ErrTransient = fmt.Errorf("faults: transient run failure")

// HangError reports a hung run: the run never produced a result and the
// caller's virtual deadline expired.
type HangError struct {
	// Deadline is the virtual machine time (seconds) the hang consumed.
	Deadline float64
}

func (e *HangError) Error() string {
	return fmt.Sprintf("faults: run hung (deadline %g virtual seconds expired)", e.Deadline)
}

// Stats counts the faults an injector has delivered. Counts depend only on
// the sequence of Run calls, so deterministic callers observe deterministic
// stats.
type Stats struct {
	Runs       int
	Dropouts   int
	Corrupted  int
	Spikes     int
	Outliers   int
	Transients int
	Hangs      int
	// HangCost is the total virtual machine time (seconds) lost to hung
	// runs.
	HangCost float64
}

// Injector wraps a Runner and injects the configured faults. It is safe for
// concurrent use; fault decisions are independent of call order.
type Injector struct {
	r   simhw.Runner
	cfg Config
	key string // RunKey prefix of the fault stream: "faults|seed"

	mu sync.Mutex
	//pandia:guardedby(mu)
	stats Stats
}

// New validates the config and wraps the runner.
func New(r simhw.Runner, cfg Config) (*Injector, error) {
	if r == nil {
		return nil, fmt.Errorf("faults: nil runner")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{r: r, cfg: cfg, key: "faults|" + strconv.FormatInt(cfg.Seed, 10)}, nil
}

// Machine returns the wrapped runner's machine shape.
func (in *Injector) Machine() topology.Machine { return in.r.Machine() }

// L3SizeMB returns the wrapped runner's cache capacity.
func (in *Injector) L3SizeMB() float64 { return in.r.L3SizeMB() }

// Config returns the injector's fault configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Injector satisfies simhw.Runner.
var _ simhw.Runner = (*Injector)(nil)

// rng derives the per-run fault stream from the injector seed and the full
// run configuration with the testbed's noise derivation, simhw.RunKey under
// the prefix "faults|seed": identical runs fault identically; changing the
// run seed (a retry) re-rolls.
func (in *Injector) rng(cfg *simhw.RunConfig) *rand.Rand {
	return rand.New(simhw.NewNoiseSource(int64(simhw.RunKey(in.key, cfg))))
}

// Run executes the run through the wrapped runner, injecting faults. The
// draw order is fixed (hang, transient, outlier, spike, dropout, corrupt) so
// one decision never shifts another's dice.
func (in *Injector) Run(cfg simhw.RunConfig) (simhw.RunResult, error) {
	rng := in.rng(&cfg)
	// Draw every class up front: the fault pattern of a run must not depend
	// on which earlier class fired.
	uHang := rng.Float64()
	uTransient := rng.Float64()
	uOutlier := rng.Float64()
	uSpike := rng.Float64()
	uDropout := rng.Float64()
	uCorrupt := rng.Float64()

	in.mu.Lock()
	in.stats.Runs++
	in.mu.Unlock()
	metInjectRuns.Inc()

	if uHang < in.cfg.Hang {
		d := in.cfg.Deadline()
		in.mu.Lock()
		in.stats.Hangs++
		in.stats.HangCost += d
		in.mu.Unlock()
		metInjectHangs.Inc()
		return simhw.RunResult{}, &HangError{Deadline: d}
	}
	if uTransient < in.cfg.Transient {
		in.mu.Lock()
		in.stats.Transients++
		in.mu.Unlock()
		metInjectTransients.Inc()
		return simhw.RunResult{}, ErrTransient
	}

	res, err := in.r.Run(cfg)
	if err != nil {
		return res, err
	}

	if uOutlier < in.cfg.Outlier {
		res.Time *= in.cfg.outlierFactor()
		res.Sample.Elapsed = res.Time
		in.mu.Lock()
		in.stats.Outliers++
		in.mu.Unlock()
		metInjectOutliers.Inc()
	}
	if uSpike < in.cfg.Spike {
		res.Time *= in.cfg.spikeFactor()
		res.Sample.Elapsed = res.Time
		in.mu.Lock()
		in.stats.Spikes++
		in.mu.Unlock()
		metInjectSpikes.Inc()
	}
	if uDropout < in.cfg.Dropout {
		dropLevels(&res.Sample, rng)
		in.mu.Lock()
		in.stats.Dropouts++
		in.mu.Unlock()
		metInjectDropouts.Inc()
	}
	if uCorrupt < in.cfg.Corrupt {
		corruptLevel(&res.Sample, rng)
		in.mu.Lock()
		in.stats.Corrupted++
		in.mu.Unlock()
		metInjectCorrupted.Inc()
	}
	return res, nil
}

// sampleFields enumerates the counter levels of a sample in a fixed order.
func sampleFields(s *counters.Sample) []*float64 {
	return []*float64{
		&s.Instructions,
		&s.L1Bytes,
		&s.L2Bytes,
		&s.L3Bytes,
		&s.DRAMBytes,
		&s.InterconnectBytes,
	}
}

// dropLevels zeroes one or two populated counter levels (a multiplexing
// slot that never scheduled reads back as zero, not as an error). Levels
// already at zero carry no information to lose.
func dropLevels(s *counters.Sample, rng *rand.Rand) {
	var populated []*float64
	for _, f := range sampleFields(s) {
		if *f > 0 {
			populated = append(populated, f)
		}
	}
	if len(populated) == 0 {
		return
	}
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		*populated[rng.Intn(len(populated))] = 0
	}
}

// corruptLevel sets one counter level to NaN, +Inf, or -Inf.
func corruptLevel(s *counters.Sample, rng *rand.Rand) {
	fields := sampleFields(s)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	*fields[rng.Intn(len(fields))] = bad[rng.Intn(len(bad))]
}
