package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"pandia"
	"pandia/internal/bench"
	"pandia/internal/core"
	"pandia/internal/eval"
	"pandia/internal/faults"
	"pandia/internal/machine"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/scheduler"
	"pandia/internal/simhw"
	"pandia/internal/workload"
)

// instance is one set-up copy of a workload's system under test. next runs
// the following operation of the workload's seeded sequence; an error is a
// failed operation (typed admission rejections are not errors).
type instance interface {
	next() error
	// digest is the fnv64 over every decision taken so far.
	digest() uint64
	// verify checks the end state of the system under test.
	verify() error
	// exact returns metrics that depend only on the seed and the ops run.
	exact() map[string]float64
	// journal is the scheduler's decision journal (nil without one).
	journal() *obs.Journal
}

// runConfig is what an instance is built with.
type runConfig struct {
	seed int64
	// model is the simulated machine (workloadDef.model).
	model string
	lay   *layers
	// tracer is wired into the scheduler (nil: no tracer).
	tracer *spanTracer
	// reference marks the fixed-length reference run: the scheduler always
	// journals (for candidate counts) and checks consistency after every
	// op, and advise verifies its first picks against an unpruned sweep.
	reference bool
	// noCache disables the scheduler's joint-prediction cache (the
	// differential twin of the reference run).
	noCache bool
	// journal is the workload's own flight-recorder setting.
	journal bool
}

// workloadDef is one entry of the benchmark's workload table. Why each
// workload was chosen is recorded with it in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	// model is the simulated machine the workload runs on.
	model string
	// refOps is the length of the reference run: long enough to exercise
	// every decision path, short enough to repeat exactly in every run.
	refOps int
	// scheduler marks the workloads that drive the scheduler: they are
	// traced through its spans and replayed on an uncached twin.
	scheduler bool
	// journal turns the scheduler's decision journal on.
	journal bool
	// period, when set, makes every timed block a whole number of
	// periods, so periodic ops (socket drains, passes over the zoo) fall
	// evenly into blocks.
	period int
	setup  func(rc runConfig) (instance, error)
}

var workloads = []workloadDef{
	{
		name:   "advise",
		model:  "x5-2",
		refOps: 22,
		period: 22,
		setup:  setupAdvise,
	},
	{
		name:   "reproduce",
		model:  "x3-2",
		refOps: 22,
		setup:  setupReproduce,
	},
	{
		name:      "sched-churn",
		model:     "x5-2",
		refOps:    2000,
		scheduler: true,
		journal:   true,
		period:    churnDrainEvery,
		setup:     setupChurn,
	},
	{
		name:      "sched-steady",
		model:     "x5-2",
		refOps:    2000,
		scheduler: true,
		setup:     setupSteady,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// digester folds decisions into an fnv64 digest; fields are separated so
// adjacent strings cannot run together.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) add(fields ...string) {
	for _, f := range fields {
		d.h.Write([]byte(f))
		d.h.Write([]byte{0})
	}
	d.h.Write([]byte{'\n'})
}

func (d digester) sum() uint64 { return d.h.Sum64() }

// newTestbed builds the testbed of a preset machine model.
func newTestbed(model string) (*simhw.Testbed, error) {
	truth, ok := simhw.Truths()[model]
	if !ok {
		return nil, fmt.Errorf("unknown machine model %q", model)
	}
	return simhw.NewTestbed(truth)
}

// ---- advise ---------------------------------------------------------------

// adviseFractions are the target fractions an operator asks Recommend for.
var adviseFractions = []float64{0.9, 0.95, 0.99}

// adviseVerifyOps is how many reference-run picks are checked against an
// unpruned, uncached sweep.
const adviseVerifyOps = 3

// advisePick is a Recommend answer kept for verify.
type advisePick struct {
	name string
	w    *core.Workload
	best float64
}

type advise struct {
	sys    *pandia.System
	runner timedRunner
	// deck is the zoo in seed-shuffled order, reshuffled when drawn
	// through, so every block of whole passes (the workload's period) asks
	// about each workload equally often.
	deck    []bench.Entry
	drawn   int
	rng     *rand.Rand
	lay     *layers
	dig     digester
	verifyN int
	picks   []advisePick
}

func setupAdvise(rc runConfig) (instance, error) {
	sys, err := pandia.NewSystem(rc.model)
	if err != nil {
		return nil, err
	}
	a := &advise{
		sys:    sys,
		runner: timedRunner{Runner: sys.Testbed(), lay: rc.lay},
		rng:    rand.New(rand.NewSource(rc.seed)),
		lay:    rc.lay,
		dig:    newDigester(),
		deck:   bench.Zoo(),
	}
	a.drawn = len(a.deck)
	if rc.reference {
		a.verifyN = adviseVerifyOps
	}
	return a, nil
}

func (a *advise) next() error {
	if a.drawn == len(a.deck) {
		a.rng.Shuffle(len(a.deck), func(i, j int) { a.deck[i], a.deck[j] = a.deck[j], a.deck[i] })
		a.drawn = 0
	}
	e := a.deck[a.drawn]
	a.drawn++
	frac := adviseFractions[a.rng.Intn(len(adviseFractions))]
	// A per-op profiling seed makes every description new, as a fresh
	// profile of a real binary would be.
	seed := a.rng.Int63()
	prof, err := (&workload.Profiler{TB: a.runner, MD: a.sys.Description(), Seed: seed}).Profile(e.Truth)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rec, err := a.sys.Recommend(&prof.Workload, frac)
	a.lay.recommendMs.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	if err != nil {
		return err
	}
	if rec.BestPrediction == nil || rec.MinimalPrediction == nil {
		return fmt.Errorf("advise %s: recommendation without a best or minimal placement", e.Name)
	}
	best, minimal := rec.BestPrediction.Speedup, rec.MinimalPrediction.Speedup
	if !(best > 0) || minimal < frac*best || rec.Minimal.Threads() > rec.Best.Threads() {
		return fmt.Errorf("advise %s: minimal %s (speedup %g) does not reach %g of best %s (speedup %g)",
			e.Name, placement.FormatShape(rec.Minimal), minimal, frac, placement.FormatShape(rec.Best), best)
	}
	a.lay.shapes += rec.Sweep.Evaluated + rec.Sweep.Pruned
	if len(a.picks) < a.verifyN {
		a.picks = append(a.picks, advisePick{e.Name, &prof.Workload, best})
	}
	a.dig.add(e.Name, fmt.Sprint(frac), placement.FormatShape(rec.Best), placement.FormatShape(rec.Minimal))
	return nil
}

// verify checks the kept picks' best speedups against the maximum of an
// unpruned, uncached sweep over the same placement space. It runs after
// the reference run's counters are read, so its sweeps are not counted.
func (a *advise) verify() error {
	shapes := a.sys.Shapes(4000)
	places := make([]placement.Placement, len(shapes))
	for i, s := range shapes {
		places[i] = s.Expand(a.sys.Machine())
	}
	for _, p := range a.picks {
		preds, err := core.PredictSweep(a.sys.Description(), p.w, places, core.Options{})
		if err != nil {
			return err
		}
		want := math.Inf(-1)
		for _, tp := range preds {
			want = math.Max(want, tp.Speedup)
		}
		if want != p.best {
			return fmt.Errorf("advise %s: Recommend's best speedup %v differs from the unpruned sweep's %v", p.name, p.best, want)
		}
	}
	return nil
}

func (a *advise) digest() uint64            { return a.dig.sum() }
func (a *advise) exact() map[string]float64 { return nil }
func (a *advise) journal() *obs.Journal     { return nil }

// ---- reproduce ------------------------------------------------------------

// reproduceShapes is the exhaustive canonical placement space of x3-2.
const reproduceShapes = 1034

type reproduce struct {
	seed    int64
	h       *eval.Harness
	zoo     []bench.Entry
	lay     *layers
	dig     digester
	k, pass int
	// first holds each workload's curve hash from the first pass; every
	// later pass must reproduce it bit for bit.
	first map[string]uint64
	errs  []float64
	gaps  []float64
}

func setupReproduce(rc runConfig) (instance, error) {
	h, err := eval.NewHarness(rc.model, 0, rc.seed)
	if err != nil {
		return nil, err
	}
	zoo := bench.Zoo()
	rand.New(rand.NewSource(rc.seed)).Shuffle(len(zoo), func(i, j int) { zoo[i], zoo[j] = zoo[j], zoo[i] })
	return &reproduce{
		seed: rc.seed, h: h, zoo: zoo, lay: rc.lay, dig: newDigester(),
		first: make(map[string]uint64),
	}, nil
}

func (r *reproduce) next() error {
	if r.k == len(r.zoo) {
		// Each pass starts from a fresh harness, so no profile, measurement
		// or prediction cache is warm.
		h, err := eval.NewHarness(r.h.Key, 0, r.seed)
		if err != nil {
			return err
		}
		r.h, r.k = h, 0
		r.pass++
	}
	e := r.zoo[r.k]
	r.k++
	h := r.h
	// The six profiling runs are what Harness.Profile performs, routed
	// through the timing runner so they count as testbed work.
	prof, err := (&workload.Profiler{TB: timedRunner{Runner: h.TB, lay: r.lay}, MD: h.MD, Seed: h.Seed}).Profile(e.Truth)
	if err != nil {
		return err
	}
	t0 := time.Now()
	meas, err := h.MeasureAll(e)
	t1 := time.Now()
	if err != nil {
		return err
	}
	pred, err := h.PredictAll(&prof.Workload)
	t2 := time.Now()
	if err != nil {
		return err
	}
	r.lay.measureRuns += int64(len(meas))
	r.lay.measureTime += t1.Sub(t0)
	r.lay.predictTime += t2.Sub(t1)
	r.lay.curves++
	if len(meas) != reproduceShapes || len(pred) != reproduceShapes {
		return fmt.Errorf("reproduce %s: curve has %d measured and %d predicted points, want %d",
			e.Name, len(meas), len(pred), reproduceShapes)
	}
	c := eval.Curve{Shapes: h.Shapes, Measured: meas, Predicted: pred}
	sum := curveHash(meas, pred)
	if r.pass == 0 {
		r.first[e.Name] = sum
		m := c.Metrics()
		r.errs = append(r.errs, m.MedianErr)
		r.gaps = append(r.gaps, c.BestGap())
	} else if r.first[e.Name] != sum {
		return fmt.Errorf("reproduce %s: pass %d curve differs from the first pass", e.Name, r.pass)
	}
	r.dig.add(e.Name, placement.FormatShape(h.Shapes[c.BestPredictedIndex()]))
	return nil
}

func curveHash(meas, pred []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append(append([]float64(nil), meas...), pred...) {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func (r *reproduce) digest() uint64        { return r.dig.sum() }
func (r *reproduce) verify() error         { return nil }
func (r *reproduce) journal() *obs.Journal { return nil }

func (r *reproduce) exact() map[string]float64 {
	if len(r.errs) == 0 {
		return nil
	}
	return map[string]float64{
		"eval.median_err_pct": median(r.errs),
		"eval.best_gap_pct":   median(r.gaps),
	}
}

// ---- scheduler workloads --------------------------------------------------

// schedEnv is the set-up both scheduler workloads share: the x5-2 machine
// description and every zoo workload profiled once, as a job launcher
// would hold them.
type schedEnv struct {
	md    *machine.Description
	names []string
	works []*core.Workload
}

func newSchedEnv(rc runConfig) (*schedEnv, error) {
	tb, err := newTestbed(rc.model)
	if err != nil {
		return nil, err
	}
	run := timedRunner{Runner: tb, lay: rc.lay}
	md, _, err := machine.DescribeWith(run, faults.Policy{})
	if err != nil {
		return nil, err
	}
	env := &schedEnv{md: md}
	for i, e := range bench.Zoo() {
		prof, err := (&workload.Profiler{TB: run, MD: md, Seed: rc.seed + int64(i)}).Profile(e.Truth)
		if err != nil {
			return nil, err
		}
		env.names = append(env.names, e.Name)
		env.works = append(env.works, &prof.Workload)
	}
	return env, nil
}

const (
	// journalCapacity is the ring size the repository's README and scenario
	// engine deploy the flight recorder with.
	journalCapacity = 1024
	// referenceJournalCapacity holds every record of a reference run (at
	// most four per op), so candidate counts can be read back at the end.
	referenceJournalCapacity = 1 << 13
)

// newScheduler builds the workload's scheduler. A traced run also gets a
// journal, enabled while tracing, because the scheduler numbers its spans
// with journal decision ids and links cache-lookup spans only under a
// nonzero id.
func (env *schedEnv) newScheduler(rc runConfig) (*scheduler.Scheduler, error) {
	cfg := scheduler.Config{DisablePredictionCache: rc.noCache}
	if rc.tracer != nil {
		cfg.Tracer = rc.tracer
	}
	switch {
	case rc.reference:
		cfg.Journal = obs.NewJournal(referenceJournalCapacity, nil)
	case rc.journal || rc.tracer != nil:
		cfg.Journal = obs.NewJournal(journalCapacity, nil)
	}
	if cfg.Journal != nil {
		cfg.Journal.SetEnabled(rc.journal || rc.reference)
	}
	return scheduler.New(env.md, cfg)
}

// schedBase holds what both scheduler workloads track about their ops.
type schedBase struct {
	s     *scheduler.Scheduler
	env   *schedEnv
	rng   *rand.Rand
	lay   *layers
	dig   digester
	check bool
}

// submit times one Submit. A typed admission rejection is a decision, not a
// failure: it is counted and digested, and returns a nil assignment.
func (b *schedBase) submit(job scheduler.Job) (*scheduler.Assignment, error) {
	var asgn *scheduler.Assignment
	err := b.lay.sched("submit", func() (err error) {
		asgn, err = b.s.Submit(job)
		return err
	})
	b.lay.submits++
	var aerr *scheduler.AdmissionError
	if errors.As(err, &aerr) {
		b.lay.rejections++
		b.dig.add("reject", job.ID, aerr.Kind.String())
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(asgn.Placement) == 0 || (job.Threads > 0 && len(asgn.Placement) != job.Threads) {
		return nil, fmt.Errorf("submit %s: placed %d threads, asked for %d", job.ID, len(asgn.Placement), job.Threads)
	}
	b.dig.add("admit", job.ID, asgn.Placement.String(), asgn.Strategy)
	return asgn, nil
}

func (b *schedBase) remove(id string) error {
	return b.lay.sched("remove", func() error { return b.s.Remove(id) })
}

func (b *schedBase) afterOp() error {
	if !b.check {
		return nil
	}
	return b.s.CheckConsistency()
}

func (b *schedBase) digest() uint64        { return b.dig.sum() }
func (b *schedBase) verify() error         { return b.s.CheckConsistency() }
func (b *schedBase) journal() *obs.Journal { return b.s.Journal() }

func (b *schedBase) exact() map[string]float64 {
	return map[string]float64{"scheduler.reject_frac": ratio(float64(b.lay.rejections), float64(b.lay.submits))}
}

// ---- sched-churn ----------------------------------------------------------

// churnThreads are the thread counts arriving jobs request; 0 lets the
// scheduler pick from its ladder.
var churnThreads = []int{0, 2, 4, 8, 16}

const (
	// churnMaxJobs and churnMinFree bound the running set before each
	// arrival. Without them, jobs that let the scheduler pick fill the
	// machine and nearly every later Submit is a cheap no-capacity
	// rejection.
	churnMaxJobs = 8
	churnMinFree = 16
	// churnDrainEvery is the op period of a socket drain and uncordon.
	churnDrainEvery = 500
)

type churn struct {
	schedBase
	// running lists the jobs in admission order; threads maps each to its
	// thread count.
	running  []string
	threads  map[string]int
	contexts int
	nextID   int
	ops      int
}

func setupChurn(rc runConfig) (instance, error) {
	env, err := newSchedEnv(rc)
	if err != nil {
		return nil, err
	}
	s, err := env.newScheduler(rc)
	if err != nil {
		return nil, err
	}
	return &churn{
		schedBase: schedBase{s: s, env: env, rng: rand.New(rand.NewSource(rc.seed)), lay: rc.lay,
			dig: newDigester(), check: rc.reference},
		threads:  make(map[string]int),
		contexts: len(env.md.Topo.Contexts()),
	}, nil
}

func (c *churn) next() error {
	c.ops++
	var err error
	if c.ops%churnDrainEvery == 0 {
		err = c.drain()
	} else {
		err = c.arrive()
	}
	if err != nil {
		return err
	}
	return c.afterOp()
}

func (c *churn) used() int {
	n := 0
	for _, t := range c.threads {
		n += t
	}
	return n
}

// depart removes a seed-chosen running job.
func (c *churn) depart() error {
	i := c.rng.Intn(len(c.running))
	id := c.running[i]
	if err := c.remove(id); err != nil {
		return err
	}
	c.forget(i)
	return nil
}

func (c *churn) forget(i int) {
	delete(c.threads, c.running[i])
	c.running = append(c.running[:i], c.running[i+1:]...)
}

func (c *churn) arrive() error {
	if len(c.running) > 0 && c.rng.Intn(2) == 0 {
		if err := c.depart(); err != nil {
			return err
		}
	}
	for len(c.running) >= churnMaxJobs || c.contexts-c.used() < churnMinFree {
		if err := c.depart(); err != nil {
			return err
		}
	}
	k := c.rng.Intn(len(c.env.works))
	c.nextID++
	job := scheduler.Job{
		ID:       fmt.Sprintf("%s-%d", c.env.names[k], c.nextID),
		Workload: c.env.works[k],
		Threads:  churnThreads[c.rng.Intn(len(churnThreads))],
	}
	asgn, err := c.submit(job)
	if err != nil || asgn == nil {
		return err
	}
	c.running = append(c.running, job.ID)
	c.threads[job.ID] = len(asgn.Placement)
	return nil
}

// drain migrates every job off a seed-chosen socket, then returns the
// socket to service.
func (c *churn) drain() error {
	sock := c.rng.Intn(c.s.Machine().Sockets)
	var rep *scheduler.DrainReport
	err := c.lay.sched("drain", func() (err error) {
		rep, err = c.s.DrainSocket(sock, scheduler.DrainOptions{})
		return err
	})
	if err != nil {
		return err
	}
	if _, err := c.s.UncordonSocket(sock); err != nil {
		return err
	}
	for _, m := range rep.Migrated {
		c.threads[m.JobID] = len(m.To)
		c.dig.add("migrate", m.JobID, m.To.String())
	}
	for _, ev := range rep.Evicted {
		for i, id := range c.running {
			if id == ev.JobID {
				c.forget(i)
				break
			}
		}
		c.dig.add("evict", ev.JobID)
	}
	if n := len(c.s.Assignments()); n != len(c.running) {
		return fmt.Errorf("drain socket %d: scheduler runs %d jobs, the client tracks %d", sock, n, len(c.running))
	}
	return nil
}

// ---- sched-steady ---------------------------------------------------------

const (
	// steadyThreads is each service's thread count: six services take 48
	// of x5-2's 72 contexts and leave rebalancing room.
	steadyThreads = 8
	// steadyMinGain is the rebalance advice threshold (2% aggregate gain).
	steadyMinGain = 0.02
)

// steadyServices is the service mix: the paper's four development
// workloads plus a bandwidth-bound SPEC OMP code and a hash join. It is
// fixed, so the seed moves only the restart order and profiling noise, not
// the mix's size and cost.
var steadyServices = []string{"BT", "CG", "IS", "MD", "Swim", "PRH"}

type steady struct {
	schedBase
	services []scheduler.Job
}

func setupSteady(rc runConfig) (instance, error) {
	env, err := newSchedEnv(rc)
	if err != nil {
		return nil, err
	}
	s, err := env.newScheduler(rc)
	if err != nil {
		return nil, err
	}
	st := &steady{schedBase: schedBase{s: s, env: env, rng: rand.New(rand.NewSource(rc.seed)), lay: rc.lay,
		dig: newDigester(), check: rc.reference}}
	for i, name := range steadyServices {
		k := slices.Index(env.names, name)
		if k < 0 {
			return nil, fmt.Errorf("service workload %q is not in the zoo", name)
		}
		job := scheduler.Job{ID: fmt.Sprintf("svc%d-%s", i, name), Workload: env.works[k], Threads: steadyThreads}
		if _, err := s.Submit(job); err != nil {
			return nil, fmt.Errorf("deploying service %s: %w", job.ID, err)
		}
		st.services = append(st.services, job)
	}
	return st, nil
}

// next is one control-loop cycle: monitor the mix, ask for rebalance
// advice, and restart one service.
func (st *steady) next() error {
	var co *core.CoPrediction
	if err := st.lay.sched("predict", func() (err error) {
		co, err = st.s.Predict()
		return err
	}); err != nil {
		return err
	}
	if len(co.Predictions) != len(st.services) {
		return fmt.Errorf("predict: %d predictions for %d services", len(co.Predictions), len(st.services))
	}
	var rep *scheduler.RebalanceReport
	if err := st.lay.sched("rebalance", func() (err error) {
		rep, err = st.s.Rebalance(steadyMinGain)
		return err
	}); err != nil {
		return err
	}
	for _, m := range rep.Moves {
		if m.Gain < steadyMinGain {
			return fmt.Errorf("rebalance: advised move of %s gains %g, below %g", m.JobID, m.Gain, steadyMinGain)
		}
	}
	moved := ""
	if len(rep.Moves) > 0 {
		moved = rep.Moves[0].JobID
	}
	st.dig.add("advice", fmt.Sprint(len(rep.Moves)), moved)

	// The restarted service gets back at least the contexts it released,
	// so a rejection here is a failure, not an admission decision.
	job := st.services[st.rng.Intn(len(st.services))]
	if err := st.remove(job.ID); err != nil {
		return err
	}
	asgn, err := st.submit(job)
	if err != nil {
		return err
	}
	if asgn == nil {
		return fmt.Errorf("restart %s: rejected", job.ID)
	}
	return st.afterOp()
}
