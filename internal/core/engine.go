package core

import (
	"errors"
	"fmt"
	"math"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/replay"
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

// job is the engine's per-workload state. All its slices are scratch owned
// by the engine: they grow to the placement size on bind and are reused
// across predictions, so a bound engine predicts without allocating.
//
// The solver state lives in classes alone; a Prediction's per-thread
// vectors are written from them through classOf.
type job struct {
	w     *Workload
	place placement.Placement

	coreOf     []int
	memSockets []int
	memShare   float64

	amdahl float64
	fInit  float64

	// classes groups the job's interchangeable threads, classOf maps each
	// thread to its class, and runs is the placement as maximal stretches of
	// consecutive threads in one class (see thread classes in DESIGN.md §8).
	classes []class
	classOf []int32
	runs    []replay.Run

	// sockLock and sockInd hold the per-socket communication sums of §5.2
	// (identical for every thread on one socket); sized to the machine's
	// socket count. sockLock depends on the placement alone and is summed
	// once per bind.
	sockLock []float64
	sockInd  []float64
	sCap     float64

	// buf is the slab backing sockLock and sockInd.
	buf []float64
}

// class is one job's threads on one socket, on cores that hold the same
// number of threads — or, for a core several jobs share, the job's threads
// on that one core. Every thread of a class starts at fInit and sees the
// same loads, so the whole class shares one solver state.
type class struct {
	// core is the representative core: the core of the class's first
	// thread in placement order, the one whose loads the solver keeps.
	core, sock int
	// perCore counts the job's threads on each of the class's cores.
	perCore int
	// key is the class's slot in the engine's grouping table.
	key int

	f, prevF, sRes, sTot, commPen, lbPen, inv float64
	bottleneck                                topology.ResourceKind
}

// carve re-slices sockLock and sockInd out of one slab sized for nSock
// sockets, growing the slab only on a larger machine. Contents are
// unspecified; group and iterate write before reading.
func (j *job) carve(nSock int) {
	if cap(j.buf) < 2*nSock {
		j.buf = make([]float64, 2*nSock) //alloccheck:ok slab grows once per larger machine; steady state reuses it
	}
	j.sockLock, j.sockInd = j.buf[:nSock:nSock], j.buf[nSock:2*nSock:2*nSock]
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

	// coreJob records which bound job owns each core (noJob when none,
	// sharedCore when several jobs' threads sit on it), and classKey maps
	// a grouping key to the class index of the job being grouped (-1 when
	// unused; restored after each job). Keys below nCores name a shared
	// core; the rest encode (socket, core occupancy) in occSpan-wide rows.
	coreJob  []int
	classKey []int32
	occSpan  int

	// pairOf[a*nSock+b] is the dense interconnect index of sockets a != b
	// (topology.Machine.PairIndex), tabulated once per engine.
	pairOf []int

	// occupied and mine are reusable bitsets over dense context indices:
	// occupied accumulates every bound job's contexts to reject cross-job
	// overlap, mine detects duplicates within one placement and is all zero
	// between job binds. They replace the map[topology.Context]bool of the
	// original engine so binding a placement allocates nothing.
	occupied []uint64
	mine     []uint64

	// sockN is per-job scratch: the placement's threads on each socket.
	sockN []int

	// invErr records the first per-iteration invariant violation when the
	// runtime checks are enabled (see invariants.go); nil otherwise.
	invErr error

	// addend holds each class's addends to the loads in shared: one row
	// per class and pass of replay.Width slots (setAddend), the classes of
	// all bound jobs numbered in job order, nCls of them.
	nCls   int
	addend [][replay.Width]float64

	// Dense load tables, one slot per resource instance. shared holds
	// l3Agg, dram and ic back to back, the slots of addShared's replay.
	instr  []float64
	l1     []float64
	l2     []float64
	l3Link []float64
	l3Agg  []float64
	dram   []float64
	ic     []float64
	shared []float64
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
	occSpan := topo.ThreadsPerCore + 1
	e := &engine{
		md:       md,
		nCores:   cores,
		nSock:    sock,
		coreOcc:  make([]int, cores),
		coreJob:  make([]int, cores),
		classKey: make([]int32, cores+sock*occSpan),
		occSpan:  occSpan,
		occupied: make([]uint64, words),
		mine:     make([]uint64, words),
		sockN:    make([]int, sock),
	}
	for k := range e.classKey {
		e.classKey[k] = -1
	}
	e.pairOf = make([]int, sock*sock)
	for a := 0; a < sock; a++ {
		for b := 0; b < sock; b++ {
			if a != b {
				e.pairOf[a*sock+b] = topo.PairIndex(a, b)
			}
		}
	}
	// One slab backs every load table.
	b := make([]float64, 4*cores+2*sock+pairs)
	e.instr, b = b[:cores:cores], b[cores:]
	e.l1, b = b[:cores:cores], b[cores:]
	e.l2, b = b[:cores:cores], b[cores:]
	e.l3Link, b = b[:cores:cores], b[cores:]
	e.shared = b
	e.l3Agg, b = b[:sock:sock], b[sock:]
	e.dram, b = b[:sock:sock], b[sock:]
	e.ic = b[:pairs:pairs]
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

func growInt32s(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n) //alloccheck:ok scratch grows once per larger placement; steady state reuses it
}

// bind attaches the placed workloads to the engine, resetting every table
// and recycling per-job scratch. With validateWorkloads false the workload
// descriptions are assumed already validated (the Predictor validates its
// one workload at construction, the scheduler each job's snapshot at
// Submit, before scoring through CoPredictor.ScoreValidated); placements are always validated, through
// the engine's bitsets rather than placement.Validate's map, producing the
// same errors without allocating.
func (e *engine) bind(placed []PlacedWorkload, validateWorkloads bool) error {
	if len(placed) == 0 {
		return errNoWorkloads
	}
	e.invErr = nil
	for i := range e.coreOcc {
		e.coreOcc[i] = 0
		e.coreJob[i] = noJob
	}
	clear(e.occupied)
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
		j := e.nextJob()
		if err := j.bind(e, pw.Workload, pw.Placement); err != nil {
			return err
		}
		e.jobs = append(e.jobs, j) //alloccheck:ok re-slices the pool; grows only with the job count
	}
	// Grouping needs every job's occupancy: a core is shared only once a
	// later job lands on it.
	for _, j := range e.jobs {
		e.group(j)
	}
	e.layout()
	return nil
}

// Sentinels of engine.coreJob.
const (
	noJob      = -1
	sharedCore = -2
)

// group splits the job's threads into classes and its placement into runs.
//
// A thread on a core only its own job uses is keyed by (socket, core
// occupancy); a thread on a shared core by the core. By induction over the
// iterations, threads with one key keep bit-identical state: they start at
// fInit, and if their utilisations agree then so do their cores' loads (the
// same number of equal additions from zero, or the same core), their
// socket's L3, DRAM and interconnect loads, the job-wide sums and caps,
// hence every step of the next iteration.
func (e *engine) group(j *job) {
	n := len(j.place)
	j.classes = j.classes[:0]
	j.runs = j.runs[:0]
	j.classOf = growInt32s(j.classOf, n)
	for i, c := range j.place {
		core := j.coreOf[i]
		shared := e.coreJob[core] == sharedCore
		key := core
		if !shared {
			key = e.nCores + c.Socket*e.occSpan + e.coreOcc[core]
		}
		k := e.classKey[key]
		if k < 0 {
			k = int32(len(j.classes))
			e.classKey[key] = k
			perCore := e.coreOcc[core]
			if shared {
				perCore = 0 // counted below, thread by thread
			}
			j.classes = append(j.classes, class{core: core, sock: c.Socket, perCore: perCore, key: key, f: j.fInit}) //alloccheck:ok grows to the largest class count seen; steady state reuses it
		}
		if shared {
			j.classes[k].perCore++
		}
		j.classOf[i] = k
		if r := len(j.runs) - 1; r >= 0 && j.runs[r].Cls == k {
			j.runs[r].N++
		} else {
			j.runs = append(j.runs, replay.Run{Cls: k, N: 1}) //alloccheck:ok grows to the largest run count seen; steady state reuses it
		}
	}
	for k := range j.classes {
		e.classKey[j.classes[k].key] = -1
	}
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

// bind validates the placement against the machine and every job bound
// before it, fills the job's derived per-placement state and adds its
// threads to the engine's core occupancy, in one walk of the placement.
// The checks and messages are placement.Validate's plus the engine's
// cross-job overlap error, in the same precedence: an empty placement,
// then the first context that is off the machine or used twice, then the
// first context an earlier job holds. The overlap is tested word by word
// after the walk; only a failing test rescans for the context to name. An
// error leaves mine all zero and the other tables to the next bind's reset.
func (j *job) bind(e *engine, w *Workload, place placement.Placement) error {
	topo := e.md.Topo
	n := len(place)
	if n == 0 {
		return errEmptyPlacing
	}
	j.coreOf = growInts(j.coreOf, n)
	mine := e.mine
	if bad := j.walk(e, place); bad >= 0 {
		clear(mine)
		if c := place[bad]; !topo.ValidContext(c) {
			return fmt.Errorf("placement: context %v not on machine %s", c, topo.Name) //alloccheck:ok invalid-placement error path is cold
		}
		return fmt.Errorf("placement: context %v used twice", place[bad]) //alloccheck:ok invalid-placement error path is cold
	}
	var overlap uint64
	for k, m := range mine {
		overlap |= m & e.occupied[k]
	}
	if overlap != 0 {
		clear(mine)
		for _, c := range place {
			if idx := topo.ContextIndex(c); e.occupied[idx/64]&(1<<(idx%64)) != 0 {
				return fmt.Errorf("core: context %v claimed by two workloads", c) //alloccheck:ok invalid-placement error path is cold
			}
		}
	}
	for k, m := range mine {
		e.occupied[k] |= m
		mine[k] = 0
	}
	sockN := e.sockN

	j.w = w
	j.place = place
	j.carve(topo.Sockets)
	j.amdahl = w.AmdahlSpeedup(n)
	j.fInit = j.amdahl / float64(n) //nanguard:ok bind rejects empty placements, n >= 1
	j.sCap = math.Inf(1)
	// The sockets in use, in increasing order.
	j.memSockets = j.memSockets[:0]
	for s, ns := range sockN {
		if ns > 0 {
			j.memSockets = append(j.memSockets, s) //alloccheck:ok grows once to the socket count; steady state reuses it
		}
	}
	// The placement is non-empty, so at least one socket is in use; the
	// fallback share of 1 is only a belt for that unreachable case.
	j.memShare = SafeDiv(1, float64(len(j.memSockets)), 1)

	// The lockstep sum of socket s adds the overhead once per thread on
	// another socket (§5.2): n−n_s additions of one value from +0, so it
	// depends on that count alone. One running sum serves every socket,
	// taken from the most threads to the fewest; a socket taken is marked
	// by a count of −1, which no socket in use has.
	if os := w.InterSocketOverhead; os > 0 && n > 1 {
		var lockstep float64
		adds := 0
		for range j.memSockets {
			s := j.memSockets[0]
			for _, u := range j.memSockets {
				if sockN[u] > sockN[s] {
					s = u
				}
			}
			for ; adds < n-sockN[s]; adds++ {
				lockstep += os
			}
			j.sockLock[s] = lockstep
			sockN[s] = -1
		}
	}
	return nil
}

// walk is bind's one pass over a non-empty placement: for each thread it
// checks that the context is on the machine (topology.ValidContext) and
// not already in mine, adds it to mine, and records the thread's core in
// coreOf, the core's occupancy and owner, and the per-socket count in
// sockN. It returns the position of the first context that fails a check,
// or −1.
//
// The walk is a function of its own, and the tables and the topology's
// sizes are held in locals, so the loop's values fit the registers: inlined
// into bind, beside its error paths, the loop copied the topology on every
// thread.
//
//pandia:noalloc
func (j *job) walk(e *engine, place placement.Placement) int {
	topo := &e.md.Topo
	sockets, cores, slots := uint(topo.Sockets), uint(topo.CoresPerSocket), uint(topo.ThreadsPerCore)
	jid := len(e.jobs)
	coreOf, mine, sockN := j.coreOf[:len(place)], e.mine, e.sockN
	coreOcc := e.coreOcc
	coreJob := e.coreJob[:len(coreOcc)]
	clear(sockN)
	for i, c := range place {
		if uint(c.Socket) >= sockets || uint(c.Core) >= cores || uint(c.Slot) >= slots {
			return i
		}
		core := c.Socket*int(cores) + c.Core   // topo.GlobalCore(c)
		idx := uint(core)*slots + uint(c.Slot) // topo.ContextIndex(c)
		bit := uint64(1) << (idx % 64)
		if mine[idx/64]&bit != 0 {
			return i
		}
		mine[idx/64] |= bit
		sockN[c.Socket]++
		coreOf[i] = core
		coreOcc[core]++
		if owner := coreJob[core]; owner == noJob {
			coreJob[core] = jid
		} else if owner != jid {
			coreJob[core] = sharedCore
		}
	}
	return -1
}

// accumulate recomputes the resource loads from all jobs' demands at the
// current utilisations (§5.1). Per-core loads are kept for each class's
// representative core only, unless full is set, when every core's table
// entry is written as the per-thread sums would have left it: callers that
// read whole tables (loadSummary, loadsMap) accumulate in full.
//
// Every sum adds the same values in the same order as a per-thread sweep of
// the placements in job order: a representative core receives its class's
// value once per thread on it, and the socket, DRAM and interconnect sums
// replay the jobs' runs (addShared).
func (e *engine) accumulate(full bool) {
	if full {
		for i := range e.instr {
			e.instr[i], e.l1[i], e.l2[i], e.l3Link[i] = 0, 0, 0, 0
		}
	} else {
		for _, j := range e.jobs {
			for k := range j.classes {
				c := j.classes[k].core
				e.instr[c], e.l1[c], e.l2[c], e.l3Link[c] = 0, 0, 0, 0
			}
		}
	}
	for _, j := range e.jobs {
		d := &j.w.Demand
		for k := range j.classes {
			cl := &j.classes[k]
			core, fi := cl.core, cl.f
			for m := 0; m < cl.perCore; m++ {
				e.instr[core] += d.Instr * fi
				e.l1[core] += d.L1 * fi
				e.l2[core] += d.L2 * fi
				e.l3Link[core] += d.L3 * fi
			}
		}
	}
	e.addShared()
	if !full {
		return
	}
	for _, j := range e.jobs {
		for i, core := range j.coreOf {
			if rep := j.classes[j.classOf[i]].core; rep != core {
				e.instr[core], e.l1[core], e.l2[core], e.l3Link[core] = e.instr[rep], e.l1[rep], e.l2[rep], e.l3Link[rep]
			}
		}
	}
}

// layout sizes the addend rows for the bound jobs' classes and sets them
// to +0: addShared writes only the slots a class feeds.
//
//pandia:noalloc
func (e *engine) layout() {
	e.nCls = 0
	for _, j := range e.jobs {
		e.nCls += len(j.classes)
	}
	rows := e.nCls * ((len(e.shared) + replay.Width - 1) / replay.Width)
	if cap(e.addend) < rows {
		e.addend = make([][replay.Width]float64, rows) //alloccheck:ok grows to the largest class count seen; steady state reuses it
	}
	e.addend = e.addend[:rows]
	clear(e.addend)
}

// setAddend sets class g's addend to slot s of shared. The slot sits in
// pass s/replay.Width, whose rows follow those of the passes before it.
// Taken unsigned, the pass and the lane are a shift and a mask, and the
// lane needs no bounds check: the signed form measured ~1.7% slower on a
// one-worker Recommend over zoo workloads on x5-2 (2-CPU Xeon host).
func (e *engine) setAddend(g, s int, v float64) {
	i := uint(s)
	e.addend[int(i/replay.Width)*e.nCls+g][i%replay.Width] = v
}

// addShared adds every bound job's threads to the socket-level loads, in
// job and thread order: each thread adds its class's L3 demand to its
// socket's aggregate and, when its DRAM demand dd is positive, dd·share to
// the DRAM of every socket its job uses and 2·dd·share to the interconnect
// between its socket and each other one of them. Every slot a class does
// not feed, a DRAM demand that is not positive included, takes +0, which
// leaves a load bit for bit unchanged (replay.Sum). So replaying each job's
// runs in job order, into accumulators that start at +0 and carry from job
// to job, once per replay.Width slots of shared, gives every load the
// additions of the per-thread loop, in its order.
//
//pandia:noalloc
func (e *engine) addShared() {
	nSock := e.nSock
	g0 := 0
	for _, j := range e.jobs {
		d := &j.w.Demand
		for k := range j.classes {
			cl := &j.classes[k]
			g := g0 + k
			dd := d.DRAM * cl.f
			if dd <= 0 {
				dd = 0
			}
			dram, ic := dd*j.memShare, 2*dd*j.memShare
			e.setAddend(g, cl.sock, d.L3*cl.f)
			for _, u := range j.memSockets {
				e.setAddend(g, nSock+u, dram)
				if u != cl.sock {
					e.setAddend(g, 2*nSock+e.pairOf[cl.sock*nSock+u], ic)
				}
			}
		}
		g0 += len(j.classes)
	}
	for base, r := 0, 0; base < len(e.shared); base, r = base+replay.Width, r+e.nCls {
		var acc [replay.Width]float64
		g0 := r
		for _, j := range e.jobs {
			n := len(j.classes)
			replay.Sum(&acc, e.addend[g0:g0+n], j.runs)
			g0 += n
		}
		copy(e.shared[base:], acc[:])
	}
}

// worstOversubscription returns the largest load/capacity factor (at least
// 1) and the bottleneck kind seen by a thread of job j on the given core and
// socket. The checks run in a fixed resource order with no closures so the
// hot loop stays allocation-free.
func (e *engine) worstOversubscription(j *job, core, sock int) (float64, topology.ResourceKind) {
	md := e.md
	d := &j.w.Demand
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
				if load := e.ic[e.pairOf[sock*e.nSock+u]]; md.InterconnectBW > 0 && load > 0 {
					if r := load / md.InterconnectBW; r > best {
						best, kind = r, topology.ResInterconnect
					}
				}
			}
		}
	}
	return best, kind
}

// iterate runs the refinement loop to convergence (§5.1-5.4) over thread
// classes and reports the iteration count and whether the utilisations
// stabilised. On return the classes hold the final state.
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
		e.accumulate(tracing)

		// (i) Resource contention plus burstiness (§5.1).
		for _, j := range e.jobs {
			for k := range j.classes {
				cl := &j.classes[k]
				cl.prevF = cl.f
				s, kind := e.worstOversubscription(j, cl.core, cl.sock)
				if !opt.DisableBurstiness && j.w.Burstiness > 0 && e.coreOcc[cl.core] > 1 {
					s += j.w.Burstiness * s * cl.f
				}
				if s > j.sCap {
					s = j.sCap
				}
				cl.sRes, cl.sTot = s, s
				cl.commPen, cl.lbPen = 0, 0
				cl.bottleneck = kind
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
			for _, r := range j.runs {
				cl := &j.classes[r.Cls]
				inv := SafeDiv(1, cl.sRes, 1)
				cl.inv = inv
				for m := int32(0); m < r.N; m++ {
					invSum += inv
				}
			}
			if invSum <= 0 {
				continue
			}
			l, iso, fn := j.w.LoadBalance, j.w.InterSocketOverhead, float64(n)
			// A thread's lockstep and independent sums range over every
			// thread on a different socket, which makes them a function of
			// the thread's socket alone. The lockstep sums were taken at
			// bind; each socket's independent sum replays the runs on the
			// other sockets, in thread order, a run's term taken once.
			for _, s := range j.memSockets {
				var independent float64
				for _, r := range j.runs {
					cl := &j.classes[r.Cls]
					if cl.sock == s {
						continue
					}
					wk := cl.inv / invSum
					term := fn * wk * iso
					for m := int32(0); m < r.N; m++ {
						independent += term
					}
				}
				j.sockInd[s] = independent
			}
			for k := range j.classes {
				cl := &j.classes[k]
				s := cl.sock
				comm := l*j.sockInd[s] + (1-l)*j.sockLock[s]
				fMid := SafeDiv(j.fInit, cl.sRes, j.fInit)
				cl.sTot = math.Min(cl.sRes+comm*fMid, j.sCap)
				cl.commPen = cl.sTot - cl.sRes
			}
		}

		// (iii) Load balancing, within each workload (§5.3).
		for _, j := range e.jobs {
			if opt.DisableLoadBalance || len(j.place) <= 1 {
				continue
			}
			sMax := 0.0
			for k := range j.classes {
				if s := j.classes[k].sTot; s > sMax {
					sMax = s
				}
			}
			l := j.w.LoadBalance
			for k := range j.classes {
				cl := &j.classes[k]
				before := cl.sTot
				cl.sTot = (1-l)*sMax + l*cl.sTot
				cl.lbPen = cl.sTot - before
			}
		}

		// Bound every value by the first iteration's maximum (§5.4).
		if iter == 0 {
			for _, j := range e.jobs {
				j.sCap = 1
				for k := range j.classes {
					if s := j.classes[k].sTot; s > j.sCap {
						j.sCap = s
					}
				}
			}
		}

		// Feed forward (§5.4).
		var maxDelta float64
		for _, j := range e.jobs {
			for k := range j.classes {
				cl := &j.classes[k]
				next := j.fInit * SafeDiv(cl.sRes, cl.sTot, 1)
				if iter >= dampenAfter {
					next = (next + cl.prevF) / 2
				}
				if d := math.Abs(next - cl.prevF); d > maxDelta {
					maxDelta = d
				}
				cl.f = next
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

// assemble is the shared tail of Predictor.Predict and CoPredictor.Predict.
// After a solve of iters rounds it refreshes every load at the converged
// utilisations and writes each bound job's Prediction (§5.5) into preds,
// its per-thread vectors read from the classes and every one stamped with
// the joint loads and the machine-wide worst resource. With the runtime
// checks on, each prediction is checked as it is built; joint names the
// workload in a failed check.
func (e *engine) assemble(preds []*Prediction, iters int, converged, joint bool) error {
	e.accumulate(true)
	loads := e.loadsMap()
	var kinds [obs.MaxLoadKinds]float64
	worstID, worst := e.loadSummary(&kinds)
	checks := invariantChecks.Load()
	for jid, j := range e.jobs {
		speedup, err := j.speedup()
		if err != nil {
			return err
		}
		n := len(j.place)
		p := &Prediction{
			Time:                  j.w.T1 / speedup, //nanguard:ok speedup() errors unless speedup > 0
			Speedup:               speedup,
			AmdahlSpeedup:         j.amdahl,
			Slowdowns:             make([]float64, n),
			ResourceSlowdowns:     make([]float64, n),
			CommPenalties:         make([]float64, n),
			LoadBalancePenalties:  make([]float64, n),
			Utilizations:          make([]float64, n),
			Bottlenecks:           make([]topology.ResourceKind, n),
			Loads:                 loads,
			WorstResource:         worstID,
			WorstOversubscription: worst,
			Iterations:            iters,
			Converged:             converged,
		}
		for i, k := range j.classOf {
			cl := &j.classes[k]
			p.Slowdowns[i], p.ResourceSlowdowns[i], p.Utilizations[i] = cl.sTot, cl.sRes, cl.f
			p.CommPenalties[i], p.LoadBalancePenalties[i], p.Bottlenecks[i] = cl.commPen, cl.lbPen, cl.bottleneck
		}
		if checks {
			if e.invErr != nil {
				return e.invErr
			}
			if err := CheckInvariants(j.w, e.md, p); err != nil {
				if joint {
					return fmt.Errorf("core: workload %q: %w", j.w.Name, err)
				}
				return err
			}
		}
		preds[jid] = p
	}
	return nil
}

// speedup computes the job's converged overall speedup (§5.5) without
// allocating — the shared core of the full and fast prediction paths.
func (j *job) speedup() (float64, error) {
	var invSum float64
	for _, r := range j.runs {
		inv := SafeDiv(1, j.classes[r.Cls].sTot, 1)
		for m := int32(0); m < r.N; m++ {
			invSum += inv
		}
	}
	speedup := j.amdahl * invSum / float64(len(j.place)) //nanguard:ok bind rejects empty placements, n >= 1
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
