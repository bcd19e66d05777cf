package faults

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"pandia/internal/placement"
	"pandia/internal/simhw"
	"pandia/internal/topology"
)

// MachineFaultKind classifies the machine-level fault classes — failures of
// the machine the scheduler is placing onto, as opposed to the
// observation-level faults the Injector adds to profiling runs.
type MachineFaultKind int

const (
	// FaultContextFailure: one hardware context dies; jobs on it must be
	// evicted and re-placed.
	FaultContextFailure MachineFaultKind = iota
	// FaultSocketDegrade: a socket loses part of its capacity (thermal
	// throttling, a failed DIMM channel); modelled as a fraction of its
	// contexts going out of service.
	FaultSocketDegrade
)

// String names the machine fault kind.
func (k MachineFaultKind) String() string {
	switch k {
	case FaultContextFailure:
		return "context-failure"
	case FaultSocketDegrade:
		return "socket-degrade"
	}
	return fmt.Sprintf("machine-fault-%d", int(k))
}

// MachineFault is one drawn machine-level incident.
type MachineFault struct {
	Kind MachineFaultKind
	// Context is the failing context for FaultContextFailure.
	Context topology.Context
	// Socket is the degraded socket for FaultSocketDegrade.
	Socket int
	// Severity is the surviving capacity fraction for FaultSocketDegrade
	// (0.5 = half the socket's contexts go out of service).
	Severity float64
}

// String renders the fault compactly for incident records.
func (f MachineFault) String() string {
	switch f.Kind {
	case FaultContextFailure:
		return fmt.Sprintf("context-failure %v", f.Context)
	case FaultSocketDegrade:
		return fmt.Sprintf("socket-degrade socket %d to %g capacity", f.Socket, f.Severity)
	}
	return f.Kind.String()
}

// MachineConfig sets the per-draw probability of each machine-level fault
// class and the per-check probability of a transient placement-validation
// error. The zero value draws nothing and validates everything.
type MachineConfig struct {
	// Seed decorrelates this injector's stream from the observation-level
	// injector and from other machines.
	Seed int64
	// ContextFailure is the probability that one incident draw fails a
	// (seeded-uniformly chosen) hardware context.
	ContextFailure float64
	// SocketDegrade is the probability that one incident draw degrades a
	// (seeded-uniformly chosen) socket to DegradeFactor capacity.
	SocketDegrade float64
	// DegradeFactor is the surviving capacity fraction of a degraded
	// socket; 0 means the default (0.5).
	DegradeFactor float64
	// PlacementFault is the probability that one placement-validation
	// check fails transiently (the mid-drain repinning error class).
	PlacementFault float64
}

const defaultDegradeFactor = 0.5

func (c MachineConfig) degradeFactor() float64 {
	if c.DegradeFactor > 0 {
		return c.DegradeFactor
	}
	return defaultDegradeFactor
}

// Validate reports whether every probability lies in [0,1] and the degrade
// factor is a fraction.
func (c MachineConfig) Validate() error {
	for _, p := range []struct {
		name string
		val  float64
	}{
		{"contextFailure", c.ContextFailure},
		{"socketDegrade", c.SocketDegrade},
		{"placementFault", c.PlacementFault},
	} {
		if math.IsNaN(p.val) || p.val < 0 || p.val > 1 {
			return fmt.Errorf("faults: %s probability %g outside [0,1]", p.name, p.val)
		}
	}
	if math.IsNaN(c.DegradeFactor) || c.DegradeFactor < 0 || c.DegradeFactor > 1 {
		return fmt.Errorf("faults: degradeFactor %g outside [0,1]", c.DegradeFactor)
	}
	return nil
}

// MachineStats counts what a MachineInjector has delivered.
type MachineStats struct {
	Draws           int
	ContextFailures int
	SocketDegrades  int
	PlacementChecks int
	PlacementFaults int
}

// PlacementFaultError is the transient placement-validation failure a
// MachineInjector's PlacementCheck injects: repinning threads raced an OS
// cpuset update and should be retried.
type PlacementFaultError struct {
	// Check is the 1-based index of the validation check that failed.
	Check int
}

func (e *PlacementFaultError) Error() string {
	return fmt.Sprintf("faults: transient placement validation failure (check %d)", e.Check)
}

// MachineInjector draws machine-level faults from a seeded deterministic
// stream: the i-th Draw and the j-th PlacementCheck of a given (machine,
// config) pair always come out the same, so every incident a scenario
// provokes is exactly reproducible. It is safe for concurrent use; the
// stream advances per call.
type MachineInjector struct {
	m   topology.Machine
	cfg MachineConfig

	mu sync.Mutex
	//pandia:guardedby(mu)
	draws int
	//pandia:guardedby(mu)
	checks int
	//pandia:guardedby(mu)
	stats MachineStats
}

// NewMachineInjector validates the config against the machine.
func NewMachineInjector(m topology.Machine, cfg MachineConfig) (*MachineInjector, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MachineInjector{m: m, cfg: cfg}, nil
}

// Stats returns a snapshot of the fault counters.
func (mi *MachineInjector) Stats() MachineStats {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return mi.stats
}

// rng derives one deterministic stream position from the seed, a stream
// label, and the call index: an fnv64a hash, as for the observation-level
// injector, seeding the same simhw.NoiseSource.
func (mi *MachineInjector) rng(stream string, call int) *rand.Rand {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "machinefaults|%d|%s|%s|%d", mi.cfg.Seed, mi.m.Name, stream, call)
	return rand.New(simhw.NewNoiseSource(int64(h.Sum64())))
}

// Draw advances the incident stream by one step and returns the machine
// faults it produced (often none). Every fault class rolls independently,
// so one incident can combine a context failure with a socket degrade.
func (mi *MachineInjector) Draw() []MachineFault {
	mi.mu.Lock()
	call := mi.draws
	mi.draws++
	mi.stats.Draws++
	mi.mu.Unlock()

	rng := mi.rng("draw", call)
	// Fixed draw order: one class's decision must not shift another's dice.
	uCtx := rng.Float64()
	uSock := rng.Float64()

	var out []MachineFault
	if uCtx < mi.cfg.ContextFailure {
		idx := rng.Intn(mi.m.TotalContexts())
		out = append(out, MachineFault{Kind: FaultContextFailure, Context: mi.m.ContextAt(idx)})
		mi.mu.Lock()
		mi.stats.ContextFailures++
		mi.mu.Unlock()
		metMachineCtxFail.Inc()
	}
	if uSock < mi.cfg.SocketDegrade {
		out = append(out, MachineFault{
			Kind:     FaultSocketDegrade,
			Socket:   rng.Intn(mi.m.Sockets),
			Severity: mi.cfg.degradeFactor(),
		})
		mi.mu.Lock()
		mi.stats.SocketDegrades++
		mi.mu.Unlock()
		metMachineDegrade.Inc()
	}
	return out
}

// PlacementCheck is the transient-error stream, shaped to plug straight
// into scheduler Config.PlacementCheck: the j-th check across the
// injector's lifetime fails iff its seeded dice say so, independent of the
// placement — retrying the same placement legitimately re-rolls, exactly
// like re-running a raced cpuset update.
func (mi *MachineInjector) PlacementCheck(placement.Placement) error {
	mi.mu.Lock()
	call := mi.checks
	mi.checks++
	mi.stats.PlacementChecks++
	mi.mu.Unlock()
	metMachineChecks.Inc()

	if mi.rng("check", call).Float64() < mi.cfg.PlacementFault {
		mi.mu.Lock()
		mi.stats.PlacementFaults++
		mi.mu.Unlock()
		metMachineFaults.Inc()
		return &PlacementFaultError{Check: call + 1}
	}
	return nil
}
