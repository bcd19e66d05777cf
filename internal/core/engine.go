package core

import (
	"errors"
	"fmt"
	"math"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// Sentinel errors of the binding fast path. The messages are unchanged
// from the historical fmt.Errorf calls; hoisting them to errors.New makes
// the steady-state bind provably allocation-free (alloccheck) — returning a
// package-level error allocates nothing.
var (
	errNoWorkloads  = errors.New("core: no workloads to predict")
	errNilWorkload  = errors.New("core: nil workload")
	errEmptyPlacing = errors.New("placement: empty")
)

// PlacedWorkload pairs one workload description with a proposed placement,
// for joint prediction of co-scheduled workloads (the paper's §8 scenario).
type PlacedWorkload struct {
	Workload  *Workload
	Placement placement.Placement
}

// job is the engine's per-workload state. All per-thread slices are scratch
// owned by the engine: they grow to the placement size on bind and are
// reused across predictions, so a bound engine predicts without allocating.
type job struct {
	w     *Workload
	place placement.Placement

	coreOf     []int
	memSockets []int
	memShare   float64

	amdahl float64
	fInit  float64

	f          []float64
	prevF      []float64
	sRes       []float64
	sTot       []float64
	commPen    []float64
	lbPen      []float64
	inv        []float64
	bottleneck []topology.ResourceKind
	// sockLock and sockInd hold the per-socket communication sums of §5.2
	// (identical for every thread on one socket); sized to the machine's
	// socket count.
	sockLock []float64
	sockInd  []float64
	sCap     float64

	// buf is the slab backing all the job's float64 scratch above: carving
	// one allocation keeps a cold bind to a single make instead of nine.
	buf []float64
}

// carve re-slices the job's float scratch out of one slab sized for n
// threads on nSock sockets, growing the slab only when a larger placement
// arrives. Contents are unspecified; bind and iterate write before reading.
func (j *job) carve(n, nSock int) {
	need := 7*n + 2*nSock
	if cap(j.buf) < need {
		j.buf = make([]float64, need) //alloccheck:ok slab grows once per larger placement; steady state reuses it
	}
	b := j.buf[:need]
	j.f, b = b[:n:n], b[n:]
	j.prevF, b = b[:n:n], b[n:]
	j.sRes, b = b[:n:n], b[n:]
	j.sTot, b = b[:n:n], b[n:]
	j.commPen, b = b[:n:n], b[n:]
	j.lbPen, b = b[:n:n], b[n:]
	j.inv, b = b[:n:n], b[n:]
	j.sockLock, b = b[:nSock:nSock], b[nSock:]
	j.sockInd = b[:nSock:nSock]
}

// engine runs the iterative prediction of §5 for one or more workloads
// sharing a machine. All workloads' demands land on the same load tables;
// communication and load-balancing penalties stay within each workload.
//
// An engine separates its machine-sized state (allocated once by
// newEngineState) from its per-prediction bindings (attached by bind), so
// Predictor and CoPredictor can reuse one engine across many placements
// without reallocating. It is not safe for concurrent use.
type engine struct {
	md   *machine.Description
	jobs []*job

	// jobPool recycles job structs (and their per-thread scratch) across
	// binds; jobs is re-sliced from it on every bind.
	jobPool []*job

	nCores int
	nSock  int

	// coreOcc counts all jobs' threads per core (SMT capacity and the
	// burstiness trigger consider every co-located thread).
	coreOcc []int

	// occupied and mine are reusable bitsets over dense context indices:
	// occupied accumulates every bound job's contexts to reject cross-job
	// overlap, mine detects duplicates within one placement. They replace
	// the map[topology.Context]bool of the original engine so binding a
	// placement allocates nothing.
	occupied []uint64
	mine     []uint64

	// sockSeen is per-job scratch for collecting the sockets a placement
	// touches in increasing order.
	sockSeen []bool

	// invErr records the first per-iteration invariant violation when the
	// runtime checks are enabled (see invariants.go); nil otherwise.
	invErr error

	// Dense load tables, one slot per resource instance.
	instr  []float64
	l1     []float64
	l2     []float64
	l3Link []float64
	l3Agg  []float64
	dram   []float64
	ic     []float64
}

// newEngineState allocates an engine's machine-sized tables with no
// workloads bound. The description is validated once, here.
func newEngineState(md *machine.Description) (*engine, error) {
	if err := md.Validate(); err != nil {
		return nil, err
	}
	topo := md.Topo
	words := (topo.TotalContexts() + 63) / 64
	cores, sock, pairs := topo.TotalCores(), topo.Sockets, topo.NumSocketPairs()
	e := &engine{
		md:       md,
		nCores:   cores,
		nSock:    sock,
		coreOcc:  make([]int, cores),
		occupied: make([]uint64, words),
		mine:     make([]uint64, words),
		sockSeen: make([]bool, sock),
	}
	// One slab backs every load table.
	b := make([]float64, 4*cores+2*sock+pairs)
	e.instr, b = b[:cores:cores], b[cores:]
	e.l1, b = b[:cores:cores], b[cores:]
	e.l2, b = b[:cores:cores], b[cores:]
	e.l3Link, b = b[:cores:cores], b[cores:]
	e.l3Agg, b = b[:sock:sock], b[sock:]
	e.dram, b = b[:sock:sock], b[sock:]
	e.ic = b[:pairs:pairs]
	return e, nil
}

func newEngine(md *machine.Description, placed []PlacedWorkload) (*engine, error) {
	e, err := newEngineState(md)
	if err != nil {
		return nil, err
	}
	if err := e.bind(placed, true); err != nil {
		return nil, err
	}
	return e, nil
}

// growInts returns s re-sliced to length n, reusing its backing array when
// the capacity allows. Contents are unspecified; every element is written
// before first read by the binding and iteration code.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n) //alloccheck:ok scratch grows once per larger placement; steady state reuses it
}

func growKinds(s []topology.ResourceKind, n int) []topology.ResourceKind {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]topology.ResourceKind, n) //alloccheck:ok scratch grows once per larger placement; steady state reuses it
}

// bind attaches the placed workloads to the engine, resetting every table
// and recycling per-job scratch. With validateWorkloads false the workload
// descriptions are assumed already validated (the Predictor validates its
// one workload at construction); placements are always validated, through
// the engine's bitsets rather than placement.Validate's map, producing the
// same errors without allocating.
func (e *engine) bind(placed []PlacedWorkload, validateWorkloads bool) error {
	if len(placed) == 0 {
		return errNoWorkloads
	}
	topo := e.md.Topo
	e.invErr = nil
	for i := range e.coreOcc {
		e.coreOcc[i] = 0
	}
	for i := range e.occupied {
		e.occupied[i] = 0
	}
	e.jobs = e.jobs[:0]
	for _, pw := range placed {
		if pw.Workload == nil {
			return errNilWorkload
		}
		if validateWorkloads {
			if err := pw.Workload.Validate(); err != nil { //alloccheck:ok validation allocates only to report an invalid workload; the Predictor fast path skips it (validateWorkloads=false)
				return err
			}
		}
		if err := e.claimPlacement(pw.Placement); err != nil {
			return err
		}
		n := len(pw.Placement)
		if n == 0 {
			return fmt.Errorf("core: empty placement for %q", pw.Workload.Name) //alloccheck:ok invalid-placement error path is cold
		}
		j := e.nextJob()
		j.bind(e, topo, pw.Workload, pw.Placement)
		e.jobs = append(e.jobs, j) //alloccheck:ok re-slices the pool; grows only with the job count
	}
	return nil
}

// nextJob hands out a pooled job struct, growing the pool on first use.
func (e *engine) nextJob() *job {
	if len(e.jobs) < len(e.jobPool) {
		return e.jobPool[len(e.jobs)]
	}
	j := &job{}                      //alloccheck:ok pool grows once per co-scheduled job count
	e.jobPool = append(e.jobPool, j) //alloccheck:ok pool grows once per co-scheduled job count
	return j
}

// claimPlacement validates one placement against the machine and every
// previously bound placement using the engine's bitsets. The checks and
// error messages mirror placement.Validate plus the engine's historical
// cross-job overlap error, in the same precedence order.
func (e *engine) claimPlacement(p placement.Placement) error {
	topo := e.md.Topo
	if len(p) == 0 {
		return errEmptyPlacing
	}
	for i := range e.mine {
		e.mine[i] = 0
	}
	for _, c := range p {
		if !topo.ValidContext(c) {
			return fmt.Errorf("placement: context %v not on machine %s", c, topo.Name) //alloccheck:ok invalid-placement error path is cold
		}
		idx := topo.ContextIndex(c)
		if e.mine[idx/64]&(1<<(idx%64)) != 0 {
			return fmt.Errorf("placement: context %v used twice", c) //alloccheck:ok invalid-placement error path is cold
		}
		e.mine[idx/64] |= 1 << (idx % 64)
	}
	for _, c := range p {
		idx := topo.ContextIndex(c)
		if e.occupied[idx/64]&(1<<(idx%64)) != 0 {
			return fmt.Errorf("core: context %v claimed by two workloads", c) //alloccheck:ok invalid-placement error path is cold
		}
		e.occupied[idx/64] |= 1 << (idx % 64)
	}
	return nil
}

// bind fills the job's derived per-placement state and adds its threads to
// the engine's core occupancy. The placement must already be validated.
func (j *job) bind(e *engine, topo topology.Machine, w *Workload, place placement.Placement) {
	n := len(place)
	j.w = w
	j.place = place
	j.coreOf = growInts(j.coreOf, n)
	j.carve(n, topo.Sockets)
	j.bottleneck = growKinds(j.bottleneck, n)
	j.amdahl = w.AmdahlSpeedup(n)
	j.fInit = j.amdahl / float64(n) //nanguard:ok bind rejects empty placements, n >= 1
	j.sCap = math.Inf(1)

	for s := range e.sockSeen {
		e.sockSeen[s] = false
	}
	for i, c := range place {
		j.coreOf[i] = topo.GlobalCore(c)
		e.coreOcc[j.coreOf[i]]++
		e.sockSeen[c.Socket] = true
	}
	// Collect the sockets in use in increasing order (the original engine
	// built them from a map and sorted; sweeping the seen table ascending
	// yields the identical slice).
	j.memSockets = j.memSockets[:0]
	for s := 0; s < topo.Sockets; s++ {
		if e.sockSeen[s] {
			j.memSockets = append(j.memSockets, s) //alloccheck:ok grows once to the socket count; steady state reuses it
		}
	}
	// The placement is non-empty, so at least one socket is in use; the
	// fallback share of 1 is only a belt for that unreachable case.
	j.memShare = SafeDiv(1, float64(len(j.memSockets)), 1)
	for i := range j.f {
		j.f[i] = j.fInit
	}
}

// accumulate recomputes every resource load from all jobs' demands at the
// current utilisations (§5.1).
func (e *engine) accumulate() {
	for i := range e.instr {
		e.instr[i], e.l1[i], e.l2[i], e.l3Link[i] = 0, 0, 0, 0
	}
	for s := range e.l3Agg {
		e.l3Agg[s], e.dram[s] = 0, 0
	}
	for p := range e.ic {
		e.ic[p] = 0
	}
	topo := e.md.Topo
	for _, j := range e.jobs {
		d := j.w.Demand
		for i, c := range j.place {
			core := j.coreOf[i]
			fi := j.f[i]
			e.instr[core] += d.Instr * fi
			e.l1[core] += d.L1 * fi
			e.l2[core] += d.L2 * fi
			e.l3Link[core] += d.L3 * fi
			e.l3Agg[c.Socket] += d.L3 * fi
			if dd := d.DRAM * fi; dd > 0 {
				for _, u := range j.memSockets {
					e.dram[u] += dd * j.memShare
					if u != c.Socket {
						e.ic[topo.PairIndex(c.Socket, u)] += 2 * dd * j.memShare
					}
				}
			}
		}
	}
}

// worstOversubscription returns thread i of job j's largest load/capacity
// factor (at least 1) and the bottleneck kind. The checks run in a fixed
// resource order with no closures so the hot loop stays allocation-free.
func (e *engine) worstOversubscription(j *job, i int) (float64, topology.ResourceKind) {
	md := e.md
	core := j.coreOf[i]
	sock := j.place[i].Socket
	d := j.w.Demand
	best := 1.0
	kind := topology.ResInstr

	if d.Instr > 0 {
		if cap := md.InstrCapacity(e.coreOcc[core]); cap > 0 && e.instr[core] > 0 {
			if r := e.instr[core] / cap; r > best {
				best, kind = r, topology.ResInstr
			}
		}
	}
	if d.L1 > 0 {
		if md.L1BW > 0 && e.l1[core] > 0 {
			if r := e.l1[core] / md.L1BW; r > best {
				best, kind = r, topology.ResL1
			}
		}
	}
	if d.L2 > 0 {
		if md.L2BW > 0 && e.l2[core] > 0 {
			if r := e.l2[core] / md.L2BW; r > best {
				best, kind = r, topology.ResL2
			}
		}
	}
	if d.L3 > 0 {
		if md.L3LinkBW > 0 && e.l3Link[core] > 0 {
			if r := e.l3Link[core] / md.L3LinkBW; r > best {
				best, kind = r, topology.ResL3Link
			}
		}
		if md.L3AggBW > 0 && e.l3Agg[sock] > 0 {
			if r := e.l3Agg[sock] / md.L3AggBW; r > best {
				best, kind = r, topology.ResL3Agg
			}
		}
	}
	if d.DRAM > 0 {
		for _, u := range j.memSockets {
			if md.DRAMBW > 0 && e.dram[u] > 0 {
				if r := e.dram[u] / md.DRAMBW; r > best {
					best, kind = r, topology.ResDRAM
				}
			}
			if u != sock {
				if load := e.ic[md.Topo.PairIndex(sock, u)]; md.InterconnectBW > 0 && load > 0 {
					if r := load / md.InterconnectBW; r > best {
						best, kind = r, topology.ResInterconnect
					}
				}
			}
		}
	}
	return best, kind
}

// iterate runs the refinement loop to convergence (§5.1-5.4) and reports
// the iteration count and whether the utilisations stabilised.
//
//pandia:noalloc
func (e *engine) iterate(opt Options) (int, bool) {
	maxIters := opt.maxIters()
	dampenAfter := opt.dampenAfter()
	tolerance := opt.tolerance()
	checks := invariantChecks.Load()
	// Tracing costs exactly this branch when off: no event is assembled, no
	// load summary computed, and the Event is a pointer-free value, so the
	// zero-allocation fast path is untouched (TestPredictTimeZeroAllocs runs
	// with a disabled tracer wired in).
	tr := opt.Tracer
	tracing := tr != nil && tr.Enabled()
	if tracing {
		for jid, j := range e.jobs {
			tr.Emit(obs.Event{Kind: obs.EvPredictStart, Job: int32(jid), Arg: int32(len(j.place)), Span: opt.SpanID})
		}
	}
	iters := 0
	converged := false
	for iter := 0; iter < maxIters; iter++ {
		iters = iter + 1
		e.accumulate()

		// (i) Resource contention plus burstiness (§5.1).
		for _, j := range e.jobs {
			copy(j.prevF, j.f)
			for i := range j.place {
				s, kind := e.worstOversubscription(j, i)
				if !opt.DisableBurstiness && j.w.Burstiness > 0 && e.coreOcc[j.coreOf[i]] > 1 {
					s += j.w.Burstiness * s * j.f[i]
				}
				if s > j.sCap {
					s = j.sCap
				}
				j.sRes[i] = s
				j.sTot[i] = s
				j.commPen[i] = 0
				j.lbPen[i] = 0
				j.bottleneck[i] = kind
			}
		}

		// (ii) Off-socket communication, within each workload (§5.2).
		for _, j := range e.jobs {
			n := len(j.place)
			if opt.DisableComm || j.w.InterSocketOverhead <= 0 || n <= 1 {
				continue
			}
			// Slowdowns are ≥ 1 by construction, so each reciprocal is a
			// plain division in exact arithmetic; SafeDiv keeps a poisoned
			// slowdown from turning the whole sum into NaN (§5 convergence
			// tests math.Abs(delta) < tol, which a NaN never satisfies).
			var invSum float64
			for i := 0; i < n; i++ {
				j.inv[i] = SafeDiv(1, j.sRes[i], 1)
				invSum += j.inv[i]
			}
			if invSum <= 0 {
				continue
			}
			l := j.w.LoadBalance
			// A thread's lockstep and independent sums range over every
			// thread on a different socket (k == i is on the same socket and
			// so always skipped), which makes them a function of the
			// thread's socket alone. Computing each socket's sums once — in
			// the same ascending thread order the per-thread double loop
			// used — keeps every floating-point addition bit-identical while
			// cutting the step from O(n²) to O(n · sockets).
			for _, s := range j.memSockets {
				var lockstep, independent float64
				for k := 0; k < n; k++ {
					if j.place[k].Socket == s {
						continue
					}
					lockstep += j.w.InterSocketOverhead
					wk := j.inv[k] / invSum
					independent += float64(n) * wk * j.w.InterSocketOverhead
				}
				j.sockLock[s] = lockstep
				j.sockInd[s] = independent
			}
			for i := 0; i < n; i++ {
				s := j.place[i].Socket
				comm := l*j.sockInd[s] + (1-l)*j.sockLock[s]
				fMid := SafeDiv(j.fInit, j.sRes[i], j.fInit)
				j.sTot[i] = math.Min(j.sRes[i]+comm*fMid, j.sCap)
				j.commPen[i] = j.sTot[i] - j.sRes[i]
			}
		}

		// (iii) Load balancing, within each workload (§5.3).
		for _, j := range e.jobs {
			n := len(j.place)
			if opt.DisableLoadBalance || n <= 1 {
				continue
			}
			sMax := 0.0
			for i := 0; i < n; i++ {
				if j.sTot[i] > sMax {
					sMax = j.sTot[i]
				}
			}
			l := j.w.LoadBalance
			for i := 0; i < n; i++ {
				before := j.sTot[i]
				j.sTot[i] = (1-l)*sMax + l*j.sTot[i]
				j.lbPen[i] = j.sTot[i] - before
			}
		}

		// Bound every value by the first iteration's maximum (§5.4).
		if iter == 0 {
			for _, j := range e.jobs {
				j.sCap = 1
				for _, s := range j.sTot {
					if s > j.sCap {
						j.sCap = s
					}
				}
			}
		}

		// Feed forward (§5.4).
		var maxDelta float64
		for _, j := range e.jobs {
			for i := range j.f {
				next := j.fInit * SafeDiv(j.sRes[i], j.sTot[i], 1)
				if iter >= dampenAfter {
					next = (next + j.prevF[i]) / 2
				}
				if d := math.Abs(next - j.prevF[i]); d > maxDelta {
					maxDelta = d
				}
				j.f[i] = next
			}
		}
		if checks && e.invErr == nil {
			e.invErr = e.checkIteration(iter) //alloccheck:ok opt-in invariant checks trade allocations for diagnosis
		}
		if tracing {
			e.emitIteration(tr, opt.SpanID, iters, maxDelta)
		}
		if maxDelta < tolerance {
			converged = true
			break
		}
	}
	if tracing {
		var conv int32
		if converged {
			conv = 1
		}
		for jid := range e.jobs {
			tr.Emit(obs.Event{Kind: obs.EvPredictEnd, Job: int32(jid), Iter: int32(iters), Arg: conv, Span: opt.SpanID})
		}
	}
	return iters, converged
}

// prediction assembles one job's Prediction (§5.5).
func (j *job) prediction(iters int, converged bool, loads map[topology.ResourceID]float64) (*Prediction, error) {
	n := len(j.place)
	if n == 0 {
		return nil, fmt.Errorf("core: empty placement for %q", j.w.Name)
	}
	speedup, err := j.speedup()
	if err != nil {
		return nil, err
	}
	return &Prediction{
		Time:                 j.w.T1 / speedup, //nanguard:ok speedup() errors unless speedup > 0
		Speedup:              speedup,
		AmdahlSpeedup:        j.amdahl,
		Slowdowns:            append([]float64(nil), j.sTot...),
		ResourceSlowdowns:    append([]float64(nil), j.sRes...),
		CommPenalties:        append([]float64(nil), j.commPen...),
		LoadBalancePenalties: append([]float64(nil), j.lbPen...),
		Utilizations:         append([]float64(nil), j.f...),
		Bottlenecks:          append([]topology.ResourceKind(nil), j.bottleneck...),
		Loads:                loads,
		Iterations:           iters,
		Converged:            converged,
	}, nil
}

// speedup computes the job's converged overall speedup (§5.5) without
// allocating — the shared core of the full and fast prediction paths.
func (j *job) speedup() (float64, error) {
	n := len(j.place)
	var invSum float64
	for i := 0; i < n; i++ {
		invSum += SafeDiv(1, j.sTot[i], 1)
	}
	speedup := j.amdahl * invSum / float64(n) //nanguard:ok bind rejects empty placements, n >= 1
	if speedup <= 0 || math.IsNaN(speedup) {
		return 0, fmt.Errorf("core: degenerate prediction for %q", j.w.Name) //alloccheck:ok degenerate-prediction error path is cold
	}
	return speedup, nil
}

// loadsMap exports the engine's non-zero resource loads. The map is sized
// exactly before filling so it never rehashes.
func (e *engine) loadsMap() map[topology.ResourceID]float64 {
	n := 0
	for _, t := range [][]float64{e.instr, e.l1, e.l2, e.l3Link, e.l3Agg, e.dram, e.ic} {
		for _, v := range t {
			if v > 0 {
				n++
			}
		}
	}
	out := make(map[topology.ResourceID]float64, n)
	put := func(id topology.ResourceID, v float64) {
		if v > 0 {
			out[id] = v
		}
	}
	for core := 0; core < e.nCores; core++ {
		put(topology.ResourceID{Kind: topology.ResInstr, Index: core}, e.instr[core])
		put(topology.ResourceID{Kind: topology.ResL1, Index: core}, e.l1[core])
		put(topology.ResourceID{Kind: topology.ResL2, Index: core}, e.l2[core])
		put(topology.ResourceID{Kind: topology.ResL3Link, Index: core}, e.l3Link[core])
	}
	for s := 0; s < e.nSock; s++ {
		put(topology.ResourceID{Kind: topology.ResL3Agg, Index: s}, e.l3Agg[s])
		put(topology.ResourceID{Kind: topology.ResDRAM, Index: s}, e.dram[s])
	}
	for a := 0; a < e.nSock; a++ {
		for b := a + 1; b < e.nSock; b++ {
			put(topology.ResourceID{Kind: topology.ResInterconnect, Pair: topology.SocketPair{Lo: a, Hi: b}},
				e.ic[e.md.Topo.PairIndex(a, b)])
		}
	}
	return out
}
