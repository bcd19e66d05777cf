package core

import (
	"math"

	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/topology"
)

// This file keeps the per-thread solver the class solver replaced, as the
// reference the differential tests hold it to. refIterate and
// refAccumulate are the engine's historical iterate and accumulate: every
// thread carries its own state, and every sum adds thread by thread.

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

// refIterate runs the per-thread refinement loop (§5.1-5.4).
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
	prevF := make([][]float64, len(e.jobs))
	inv := make([][]float64, len(e.jobs))
	sockLock := make([][]float64, len(e.jobs))
	sockInd := make([][]float64, len(e.jobs))
	for jid, j := range e.jobs {
		prevF[jid] = make([]float64, len(j.place))
		inv[jid] = make([]float64, len(j.place))
		sockLock[jid] = make([]float64, e.nSock)
		sockInd[jid] = make([]float64, e.nSock)
		for i := range j.f {
			j.f[i] = j.fInit
		}
	}
	iters := 0
	converged := false
	for iter := 0; iter < maxIters; iter++ {
		iters = iter + 1
		e.refAccumulate()

		for jid, j := range e.jobs {
			copy(prevF[jid], j.f)
			for i := range j.place {
				s, kind := e.worstOversubscription(j, j.coreOf[i], j.place[i].Socket)
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

		for jid, j := range e.jobs {
			n := len(j.place)
			if opt.DisableComm || j.w.InterSocketOverhead <= 0 || n <= 1 {
				continue
			}
			var invSum float64
			for i := 0; i < n; i++ {
				inv[jid][i] = SafeDiv(1, j.sRes[i], 1)
				invSum += inv[jid][i]
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
					wk := inv[jid][k] / invSum
					independent += float64(n) * wk * j.w.InterSocketOverhead
				}
				sockLock[jid][s] = lockstep
				sockInd[jid][s] = independent
			}
			for i := 0; i < n; i++ {
				s := j.place[i].Socket
				comm := l*sockInd[jid][s] + (1-l)*sockLock[jid][s]
				fMid := SafeDiv(j.fInit, j.sRes[i], j.fInit)
				j.sTot[i] = math.Min(j.sRes[i]+comm*fMid, j.sCap)
				j.commPen[i] = j.sTot[i] - j.sRes[i]
			}
		}

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

		var maxDelta float64
		for jid, j := range e.jobs {
			for i := range j.f {
				next := j.fInit * SafeDiv(j.sRes[i], j.sTot[i], 1)
				if iter >= dampenAfter {
					next = (next + prevF[jid][i]) / 2
				}
				if d := math.Abs(next - prevF[jid][i]); d > maxDelta {
					maxDelta = d
				}
				j.f[i] = next
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

// refSpeedup is the per-thread §5.5 speedup.
func (j *job) refSpeedup() float64 {
	n := len(j.place)
	var invSum float64
	for i := 0; i < n; i++ {
		invSum += SafeDiv(1, j.sTot[i], 1)
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
	e, err := newEngine(md, placed)
	if err != nil {
		return nil, err
	}
	var rec *recordingTracer
	if trace {
		rec = &recordingTracer{}
		opt.Tracer = rec
	}
	out := &SolveState{}
	if reference {
		out.Iterations, out.Converged = e.refIterate(opt)
		e.refAccumulate()
	} else {
		out.Iterations, out.Converged = e.iterate(opt)
		e.accumulate(true)
	}
	for _, j := range e.jobs {
		// A degenerate speedup (an error from speedup()) is recorded as -1.
		sp := j.refSpeedup()
		if sp <= 0 || math.IsNaN(sp) {
			sp = -1
		}
		if !reference {
			if sp, err = j.speedup(); err != nil {
				sp = -1
			}
		}
		out.Speedups = append(out.Speedups, sp)
		out.Slowdowns = append(out.Slowdowns, append([]float64(nil), j.sTot...))
		out.ResourceSlowdowns = append(out.ResourceSlowdowns, append([]float64(nil), j.sRes...))
		out.CommPenalties = append(out.CommPenalties, append([]float64(nil), j.commPen...))
		out.LoadBalancePenalties = append(out.LoadBalancePenalties, append([]float64(nil), j.lbPen...))
		out.Utilizations = append(out.Utilizations, append([]float64(nil), j.f...))
		out.Bottlenecks = append(out.Bottlenecks, append([]topology.ResourceKind(nil), j.bottleneck...))
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
