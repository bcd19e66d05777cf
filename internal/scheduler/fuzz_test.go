package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"pandia/internal/placement"
	"pandia/internal/topology"
)

// fuzzShapes are the small machines FuzzSchedulerOps runs on: small enough
// that random op sequences fill, drain and fail them often.
var fuzzShapes = []topology.Machine{
	topology.Toy(),
	{Name: "fuzz-1x3x2", Sockets: 1, CoresPerSocket: 3, ThreadsPerCore: 2},
	{Name: "fuzz-2x3x1", Sockets: 2, CoresPerSocket: 3, ThreadsPerCore: 1},
	{Name: "fuzz-3x1x2", Sockets: 3, CoresPerSocket: 1, ThreadsPerCore: 2},
}

// refModel is the reference the fuzzer holds the scheduler to: who owns
// each context, each context's health, and each job's placement, updated
// from the scheduler's reported outcomes and checked against them. It
// cannot predict which placement the predictor picks, but it decides every
// outcome that follows from occupancy and health alone.
type refModel struct {
	m      topology.Machine
	owner  map[topology.Context]string
	health map[topology.Context]Health
	jobs   map[string]placement.Placement
}

func newRefModel(m topology.Machine) *refModel {
	return &refModel{m: m, owner: map[topology.Context]string{},
		health: map[topology.Context]Health{}, jobs: map[string]placement.Placement{}}
}

// usable reports whether job id may be placed on c: c is on the machine,
// healthy, and free or id's own.
func (r *refModel) usable(c topology.Context, id string) bool {
	owner := r.owner[c]
	return r.m.ValidContext(c) && r.health[c] == Healthy && (owner == "" || owner == id)
}

func (r *refModel) place(id string, p placement.Placement) {
	r.release(id)
	for _, c := range p {
		r.owner[c] = id
	}
	r.jobs[id] = append(placement.Placement(nil), p...)
}

func (r *refModel) release(id string) {
	for _, c := range r.jobs[id] {
		delete(r.owner, c)
	}
	delete(r.jobs, id)
}

// affected lists, sorted, the jobs with a thread on one of ctxs.
func (r *refModel) affected(ctxs []topology.Context) []string {
	var ids []string
	for id, p := range r.jobs {
		if slices.ContainsFunc(p, func(c topology.Context) bool { return slices.Contains(ctxs, c) }) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// applyMoveErr predicts whether ApplyMove(mv) must fail, from occupancy and
// health alone (the fuzzed scheduler has no PlacementCheck).
func (r *refModel) applyMoveErr(mv Move) bool {
	cur, ok := r.jobs[mv.JobID]
	if !ok || !samePlacementRef(cur, mv.From) || placement.Placement(mv.To).Validate(r.m) != nil || len(mv.To) != len(cur) {
		return true
	}
	return slices.ContainsFunc(mv.To, func(c topology.Context) bool { return !r.usable(c, mv.JobID) })
}

// samePlacementRef reports whether a and b hold the same contexts in any
// order.
func samePlacementRef(a, b placement.Placement) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	byContext := func(p, q topology.Context) int {
		return cmp.Or(cmp.Compare(p.Socket, q.Socket), cmp.Compare(p.Core, q.Core), cmp.Compare(p.Slot, q.Slot))
	}
	slices.SortFunc(x, byContext)
	slices.SortFunc(y, byContext)
	return slices.Equal(x, y)
}

// check compares every observable of s with the model.
func (r *refModel) check(s *Scheduler) error {
	if err := s.CheckConsistency(); err != nil {
		return err
	}
	var free []topology.Context
	var hc HealthCounts
	for _, c := range r.m.Contexts() {
		h := r.health[c]
		if got := s.Health(c); got != h {
			return fmt.Errorf("Health(%v) = %v, model %v", c, got, h)
		}
		switch h {
		case Healthy:
			hc.Healthy++
			if r.owner[c] == "" {
				free = append(free, c)
			}
		case Cordoned:
			hc.Cordoned++
		case Failed:
			hc.Failed++
		}
	}
	if got := s.Health(topology.Context{Socket: r.m.Sockets}); got != Healthy {
		return fmt.Errorf("Health of an off-machine context = %v, want healthy", got)
	}
	if got := s.HealthCounts(); got != hc {
		return fmt.Errorf("HealthCounts() = %+v, model %+v", got, hc)
	}
	if got := s.FreeContexts(); !slices.Equal(got, free) {
		return fmt.Errorf("FreeContexts() = %v, model %v", got, free)
	}
	asgns := s.Assignments()
	if len(asgns) != len(r.jobs) {
		return fmt.Errorf("%d assignments, model has %d jobs", len(asgns), len(r.jobs))
	}
	for _, a := range asgns {
		if p, ok := r.jobs[a.Job.ID]; !ok || !slices.Equal(a.Placement, p) {
			return fmt.Errorf("job %q placed on %v, model %v", a.Job.ID, a.Placement, p)
		}
	}
	return nil
}

// fuzzBytes hands out the fuzz input a byte at a time, zero once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// contexts decodes a short context list: a whole socket, or one to four
// contexts, now and then one off the machine.
func (b *fuzzBytes) contexts(m topology.Machine) []topology.Context {
	n := b.next() % 5
	if n == 0 {
		sock := b.next() % m.Sockets
		var out []topology.Context
		for _, c := range m.Contexts() {
			if c.Socket == sock {
				out = append(out, c)
			}
		}
		return out
	}
	out := make([]topology.Context, 0, n)
	for i := 0; i < n; i++ {
		v := b.next()
		if v == 255 {
			out = append(out, topology.Context{Socket: m.Sockets})
			continue
		}
		out = append(out, m.ContextAt(v%m.TotalContexts()))
	}
	return out
}

// FuzzSchedulerOps decodes bytes into sequences of Submit, Remove,
// Rebalance, ApplyMove, Cordon, Uncordon, Fail and Drain on small machines.
// After every operation the scheduler must pass CheckConsistency and agree
// with the reference model on free contexts, health, health counts and
// assignments; every outcome that follows from occupancy and health alone
// (validation errors, move conflicts, counts, evicted jobs) must match the
// model's.
func FuzzSchedulerOps(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1, 0, 0, 2, 0, 0, 3, 5, 2, 0},
		{1, 0, 0, 0, 0, 1, 0, 4, 0, 7, 1, 0, 0, 1, 2},
		{2, 0, 1, 2, 0, 2, 1, 0, 6, 2, 3, 4, 2, 0, 3, 0},
		{3, 0, 0, 0, 0, 1, 0, 5, 0, 0, 2, 1, 0, 1, 0, 3, 4, 0, 0},
		{0, 0, 3, 0, 0, 4, 1, 2, 3, 255, 7, 0, 1, 2, 0, 5, 3},
	} {
		f.Add(seed)
	}
	base := testMD(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		md := *base
		md.Topo = fuzzShapes[in.next()%len(fuzzShapes)]
		s, err := New(&md, Config{})
		if err != nil {
			t.Fatal(err)
		}
		m := md.Topo
		r := newRefModel(m)
		var advice []Move
		for op := 0; op < 48 && len(in) > 0; op++ {
			id := fmt.Sprintf("j%d", in.next()%6)
			what := in.next() % 8
			switch what {
			case 0: // Submit
				job := computeJob(id)
				if in.next()%2 == 1 {
					job = memoryJob(id)
				}
				job.Threads = in.next() % (m.TotalContexts() + 2)
				_, running := r.jobs[id]
				asgn, err := s.Submit(job)
				if err != nil {
					break
				}
				if running {
					t.Fatalf("op %d: Submit of running job %q succeeded", op, id)
				}
				if job.Threads > 0 && len(asgn.Placement) != job.Threads {
					t.Fatalf("op %d: Submit placed %d threads, job asked for %d", op, len(asgn.Placement), job.Threads)
				}
				if err := asgn.Placement.Validate(m); err != nil {
					t.Fatalf("op %d: Submit placed %q on an invalid placement: %v", op, id, err)
				}
				for _, c := range asgn.Placement {
					if !r.usable(c, id) {
						t.Fatalf("op %d: Submit placed %q on %v, which is not free and healthy", op, id, c)
					}
				}
				r.place(id, asgn.Placement)
			case 1: // Remove
				_, running := r.jobs[id]
				if err := s.Remove(id); (err == nil) != running {
					t.Fatalf("op %d: Remove(%q) = %v, model running %v", op, id, err, running)
				}
				r.release(id)
			case 2: // Rebalance
				rep, err := s.Rebalance(0)
				if err != nil {
					t.Fatalf("op %d: Rebalance: %v", op, err)
				}
				if rep == nil {
					break
				}
				advice = rep.Moves
				for _, mv := range advice {
					if r.applyMoveErr(mv) {
						t.Fatalf("op %d: Rebalance advised an inapplicable move %+v", op, mv)
					}
				}
			case 3: // ApplyMove: advised (maybe stale by now) or made up
				var mv Move
				if k := in.next(); k < 128 && len(advice) > 0 {
					mv = advice[k%len(advice)]
				} else {
					mv = Move{JobID: id, From: r.jobs[id], To: in.contexts(m)}
				}
				wantErr := r.applyMoveErr(mv)
				if err := s.ApplyMove(mv); (err != nil) != wantErr {
					t.Fatalf("op %d: ApplyMove(%+v) = %v, model expects an error: %v", op, mv, err, wantErr)
				}
				if !wantErr {
					r.place(mv.JobID, mv.To)
				}
			case 4, 5, 6, 7: // Cordon, Uncordon, Fail, Drain
				ctxs := in.contexts(m)
				valid := !slices.ContainsFunc(ctxs, func(c topology.Context) bool { return !m.ValidContext(c) })
				var err error
				switch what {
				case 4:
					var n int
					n, err = s.Cordon(ctxs...)
					if err == nil {
						want := r.setHealth(ctxs, Cordoned, func(h Health) bool { return h == Healthy })
						if n != want {
							t.Fatalf("op %d: Cordon newly cordoned %d, model %d", op, n, want)
						}
					}
				case 5:
					var n int
					n, err = s.Uncordon(ctxs...)
					if err == nil {
						want := r.setHealth(ctxs, Healthy, func(h Health) bool { return h != Healthy })
						if n != want {
							t.Fatalf("op %d: Uncordon returned %d, model %d", op, n, want)
						}
					}
				case 6:
					var rep *EvictionReport
					if rep, err = s.Fail(ctxs...); err == nil {
						r.setHealth(ctxs, Failed, func(h Health) bool { return h != Failed })
						want := r.affected(ctxs)
						if got := evictedIDs(rep.Evicted); !slices.Equal(got, want) {
							t.Fatalf("op %d: Fail evicted %v, model %v", op, got, want)
						}
						for _, id := range want {
							r.release(id)
						}
					}
				case 7:
					var rep *DrainReport
					if rep, err = s.Drain(ctxs, DrainOptions{}); err == nil {
						r.drain(t, op, ctxs, rep)
					}
				}
				if (err == nil) != valid {
					t.Fatalf("op %d: lifecycle op %d on %v returned %v, contexts valid %v", op, what, ctxs, err, valid)
				}
			}
			if err := r.check(s); err != nil {
				t.Fatalf("op %d (kind %d, job %s): %v", op, what, id, err)
			}
		}
	})
}

// setHealth moves every context of ctxs whose state passes from to h and
// returns how many changed.
func (r *refModel) setHealth(ctxs []topology.Context, h Health, from func(Health) bool) int {
	n := 0
	for _, c := range ctxs {
		if from(r.health[c]) {
			if h == Healthy {
				delete(r.health, c)
			} else {
				r.health[c] = h
			}
			n++
		}
	}
	return n
}

// drain checks a drain report against the model and applies it: every job
// on a drained context is migrated or evicted, never both, and each
// migration lands on usable contexts off the drain. Evictions apply first:
// a migration can only use contexts an earlier eviction freed, never ones a
// later one did.
func (r *refModel) drain(t *testing.T, op int, ctxs []topology.Context, rep *DrainReport) {
	t.Helper()
	want := r.affected(ctxs)
	r.setHealth(ctxs, Cordoned, func(h Health) bool { return h == Healthy })
	var got []string
	for _, ev := range rep.Evicted {
		got = append(got, ev.JobID)
		r.release(ev.JobID)
	}
	for _, mg := range rep.Migrated {
		got = append(got, mg.JobID)
		if !slices.Equal(mg.From, r.jobs[mg.JobID]) {
			t.Fatalf("op %d: drain migrated %q from %v, model %v", op, mg.JobID, mg.From, r.jobs[mg.JobID])
		}
		for _, c := range mg.To {
			if !r.usable(c, mg.JobID) || slices.Contains(ctxs, c) {
				t.Fatalf("op %d: drain migrated %q onto %v, which it may not use", op, mg.JobID, c)
			}
		}
		r.place(mg.JobID, mg.To)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("op %d: drain handled jobs %v, model expects %v", op, got, want)
	}
}
