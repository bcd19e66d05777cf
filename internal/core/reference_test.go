package core

import (
	"math"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/replay"
	"pandia/internal/topology"
)

// This file keeps the per-thread solver the class solver replaced, as the
// reference the differential tests hold it to. refIterate and
// refAccumulate are the engine's historical iterate and accumulate: every
// thread carries its own state, and every sum adds thread by thread. The
// state lives in the engine's class storage, one class per thread (see
// refGroup), so checkIteration, emitIteration and the output extraction
// read both solvers alike.

// refGroup regroups the job as one class per thread, in placement order, so
// that every run is a single thread.
func (j *job) refGroup() {
	j.classes = j.classes[:0]
	j.runs = j.runs[:0]
	for i, c := range j.place {
		j.classes = append(j.classes, class{core: j.coreOf[i], sock: c.Socket, perCore: 1, f: j.fInit})
		j.classOf[i] = int32(i)
		j.runs = append(j.runs, replay.Run{Cls: int32(i), N: 1})
	}
}

// refAccumulate recomputes every resource load from all jobs' demands at
// the per-thread utilisations (§5.1).
func (e *engine) refAccumulate() {
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
			fi := j.classes[i].f
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

// refIterate runs the per-thread refinement loop (§5.1-5.4) on jobs
// regrouped by refGroup: class i is thread i.
func (e *engine) refIterate(opt Options) (int, bool) {
	maxIters := opt.maxIters()
	dampenAfter := opt.dampenAfter()
	tolerance := opt.tolerance()
	checks := invariantChecks.Load()
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
		e.refAccumulate()

		for _, j := range e.jobs {
			for i := range j.place {
				t := &j.classes[i]
				t.prevF = t.f
				s, kind := e.worstOversubscription(j, j.coreOf[i], j.place[i].Socket)
				if !opt.DisableBurstiness && j.w.Burstiness > 0 && e.coreOcc[j.coreOf[i]] > 1 {
					s += j.w.Burstiness * s * t.f
				}
				if s > j.sCap {
					s = j.sCap
				}
				t.sRes = s
				t.sTot = s
				t.commPen = 0
				t.lbPen = 0
				t.bottleneck = kind
			}
		}

		for _, j := range e.jobs {
			n := len(j.place)
			if opt.DisableComm || j.w.InterSocketOverhead <= 0 || n <= 1 {
				continue
			}
			var invSum float64
			for i := 0; i < n; i++ {
				j.classes[i].inv = SafeDiv(1, j.classes[i].sRes, 1)
				invSum += j.classes[i].inv
			}
			if invSum <= 0 {
				continue
			}
			l := j.w.LoadBalance
			for _, s := range j.memSockets {
				var lockstep, independent float64
				for k := 0; k < n; k++ {
					if j.place[k].Socket == s {
						continue
					}
					lockstep += j.w.InterSocketOverhead
					wk := j.classes[k].inv / invSum
					independent += float64(n) * wk * j.w.InterSocketOverhead
				}
				j.sockLock[s] = lockstep
				j.sockInd[s] = independent
			}
			for i := 0; i < n; i++ {
				t := &j.classes[i]
				s := j.place[i].Socket
				comm := l*j.sockInd[s] + (1-l)*j.sockLock[s]
				fMid := SafeDiv(j.fInit, t.sRes, j.fInit)
				t.sTot = math.Min(t.sRes+comm*fMid, j.sCap)
				t.commPen = t.sTot - t.sRes
			}
		}

		for _, j := range e.jobs {
			n := len(j.place)
			if opt.DisableLoadBalance || n <= 1 {
				continue
			}
			sMax := 0.0
			for i := 0; i < n; i++ {
				if j.classes[i].sTot > sMax {
					sMax = j.classes[i].sTot
				}
			}
			l := j.w.LoadBalance
			for i := 0; i < n; i++ {
				t := &j.classes[i]
				before := t.sTot
				t.sTot = (1-l)*sMax + l*t.sTot
				t.lbPen = t.sTot - before
			}
		}

		if iter == 0 {
			for _, j := range e.jobs {
				j.sCap = 1
				for i := range j.classes {
					if s := j.classes[i].sTot; s > j.sCap {
						j.sCap = s
					}
				}
			}
		}

		var maxDelta float64
		for _, j := range e.jobs {
			for i := range j.classes {
				t := &j.classes[i]
				next := j.fInit * SafeDiv(t.sRes, t.sTot, 1)
				if iter >= dampenAfter {
					next = (next + t.prevF) / 2
				}
				if d := math.Abs(next - t.prevF); d > maxDelta {
					maxDelta = d
				}
				t.f = next
			}
		}
		if checks && e.invErr == nil {
			e.invErr = e.checkIteration(iter)
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

// refSpeedup is the per-thread §5.5 speedup of a job regrouped by
// refGroup: class i is thread i.
func (j *job) refSpeedup() float64 {
	n := len(j.place)
	var invSum float64
	for i := 0; i < n; i++ {
		invSum += SafeDiv(1, j.classes[i].sTot, 1)
	}
	return j.amdahl * invSum / float64(n)
}

// SolveState is the complete outcome of one engine solve, for comparing
// the class solver with the per-thread reference from package core_test.
type SolveState struct {
	Iterations int
	Converged  bool
	// Per job, in input order; a degenerate speedup is -1.
	Speedups             []float64
	Slowdowns            [][]float64
	ResourceSlowdowns    [][]float64
	CommPenalties        [][]float64
	LoadBalancePenalties [][]float64
	Utilizations         [][]float64
	Bottlenecks          [][]topology.ResourceKind
	// Joint loads at the converged utilisations.
	Loads                 map[topology.ResourceID]float64
	WorstResource         topology.ResourceID
	WorstOversubscription float64
	// Events is the trace the solve emitted (nil when untraced), and
	// InvariantErr the first per-iteration invariant violation ("" when
	// none or when the checks are off).
	Events       []obs.Event
	InvariantErr string
}

// recordingTracer keeps every event it receives, in order.
type recordingTracer struct{ events []obs.Event }

func (r *recordingTracer) Enabled() bool     { return true }
func (r *recordingTracer) Emit(ev obs.Event) { r.events = append(r.events, ev) }

// SolveClasses binds placed on a fresh engine and solves with the class
// solver; SolveReference does the same with the per-thread reference.
// trace records the solver's events.
func SolveClasses(md *machine.Description, placed []PlacedWorkload, opt Options, trace bool) (*SolveState, error) {
	return solveWith(md, placed, opt, trace, false)
}

// SolveReference is SolveClasses on the per-thread reference solver.
func SolveReference(md *machine.Description, placed []PlacedWorkload, opt Options, trace bool) (*SolveState, error) {
	return solveWith(md, placed, opt, trace, true)
}

func solveWith(md *machine.Description, placed []PlacedWorkload, opt Options, trace, reference bool) (*SolveState, error) {
	e, err := newEngineState(md)
	if err != nil {
		return nil, err
	}
	if err := e.bind(placed, true); err != nil {
		return nil, err
	}
	var rec *recordingTracer
	if trace {
		rec = &recordingTracer{}
		opt.Tracer = rec
	}
	out := &SolveState{}
	if reference {
		for _, j := range e.jobs {
			j.refGroup()
		}
		out.Iterations, out.Converged = e.refIterate(opt)
		e.refAccumulate()
	} else {
		out.Iterations, out.Converged = e.iterate(opt)
		e.accumulate(true)
	}
	for _, j := range e.jobs {
		// A degenerate speedup (an error from speedup()) is recorded as -1.
		var sp float64
		if reference {
			if sp = j.refSpeedup(); sp <= 0 || math.IsNaN(sp) {
				sp = -1
			}
		} else if sp, err = j.speedup(); err != nil {
			sp = -1
		}
		out.Speedups = append(out.Speedups, sp)
		n := len(j.place)
		sTot, sRes, comm, lb, f := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		kinds := make([]topology.ResourceKind, n)
		for i, k := range j.classOf {
			cl := &j.classes[k]
			sTot[i], sRes[i], comm[i], lb[i], f[i], kinds[i] = cl.sTot, cl.sRes, cl.commPen, cl.lbPen, cl.f, cl.bottleneck
		}
		out.Slowdowns = append(out.Slowdowns, sTot)
		out.ResourceSlowdowns = append(out.ResourceSlowdowns, sRes)
		out.CommPenalties = append(out.CommPenalties, comm)
		out.LoadBalancePenalties = append(out.LoadBalancePenalties, lb)
		out.Utilizations = append(out.Utilizations, f)
		out.Bottlenecks = append(out.Bottlenecks, kinds)
	}
	out.Loads = e.loadsMap()
	var worst [obs.MaxLoadKinds]float64
	out.WorstResource, out.WorstOversubscription = e.loadSummary(&worst)
	if rec != nil {
		out.Events = rec.events
	}
	if e.invErr != nil {
		out.InvariantErr = e.invErr.Error()
	}
	return out, nil
}
