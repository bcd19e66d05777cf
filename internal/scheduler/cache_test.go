package scheduler

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/core"
	"pandia/internal/obs"
	"pandia/internal/placement"
)

// driveOutcome is everything a driveScheduler run decided: the serialised
// rebalance and drain reports, the final assignments' placements and
// admission-time speedups and times, the final mix's full joint prediction,
// and the decision journal.
type driveOutcome struct {
	rebalance, drain []byte
	placements       []placement.Placement
	admitted         [][2]uint64
	final            []byte
	journal          []obs.DecisionRecord
}

// newDriven builds a scheduler for driveScheduler with a journal on a manual
// clock, so two runs' journals are comparable byte for byte.
func newDriven(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	cfg.Journal = obs.NewJournal(256, obs.NewManualClock(0, 0))
	cfg.Journal.SetEnabled(true)
	s, err := New(testMD(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// predictionJSON serialises a joint prediction, with each load map keyed by
// the resource names (encoding/json cannot key a map by ResourceID).
func predictionJSON(t *testing.T, co *core.CoPrediction) []byte {
	t.Helper()
	type withLoads struct {
		*core.Prediction
		Loads map[string]float64
	}
	preds := make([]withLoads, len(co.Predictions))
	for i, p := range co.Predictions {
		loads := make(map[string]float64, len(p.Loads))
		for id, v := range p.Loads {
			loads[id.String()] = v
		}
		preds[i] = withLoads{p, loads}
	}
	b, err := json.Marshal(struct {
		Predictions           []withLoads
		WorstOversubscription float64
		WorstResource         string
	}{preds, co.WorstOversubscription, co.WorstResource.String()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// driveScheduler runs the same submit / degrade / rebalance / drain
// sequence on a scheduler and returns what it decided.
func driveScheduler(t *testing.T, s *Scheduler) driveOutcome {
	t.Helper()
	var out driveOutcome
	a1, err := s.Submit(func() Job { j := computeJob("c1"); j.Threads = 8; return j }())
	if err != nil {
		t.Fatal(err)
	}
	// Degrade c1 by hand into a packed two-per-core shape while the machine
	// is otherwise empty, so the advisor has a real move to find.
	var packed placement.Placement
	for core := 0; core < 4; core++ {
		for slot := 0; slot < 2; slot++ {
			packed = append(packed, pandiaCtx(0, core, slot))
		}
	}
	if err := s.ApplyMove(Move{JobID: "c1", From: a1.Placement, To: packed}); err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{
		func() Job { j := memoryJob("m1"); j.Threads = 6; return j }(),
		func() Job { j := computeJob("c2"); j.Threads = 4; return j }(),
	} {
		if _, err := s.Submit(job); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := s.Rebalance(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if out.rebalance, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	requireBaseMatchesPredict(t, s, rep)

	drep, err := s.DrainSocket(0, DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.drain, err = json.Marshal(drep); err != nil {
		t.Fatal(err)
	}

	for _, a := range s.Assignments() {
		out.placements = append(out.placements, a.Placement)
		out.admitted = append(out.admitted, [2]uint64{math.Float64bits(a.Speedup), math.Float64bits(a.Time)})
	}
	co, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	out.final = predictionJSON(t, co)
	out.journal = s.Journal().Records()
	return out
}

// journalBytes renders a journal as JSONL; withCache false clears each
// record's cache-traffic counts, which an uncached scheduler never has.
func journalBytes(t *testing.T, recs []obs.DecisionRecord, withCache bool) []byte {
	t.Helper()
	if !withCache {
		recs = slices.Clone(recs)
		for i := range recs {
			recs[i].CacheHits, recs[i].CacheMisses = 0, 0
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteJournalJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameOutcome fails unless two runs decided identically.
func requireSameOutcome(t *testing.T, what string, a, b driveOutcome, withCache bool) {
	t.Helper()
	if !bytes.Equal(a.rebalance, b.rebalance) {
		t.Fatalf("%s: rebalance reports differ:\n%s\n%s", what, a.rebalance, b.rebalance)
	}
	if !bytes.Equal(a.drain, b.drain) {
		t.Fatalf("%s: drain reports differ:\n%s\n%s", what, a.drain, b.drain)
	}
	if len(a.placements) != len(b.placements) {
		t.Fatalf("%s: assignment counts differ: %d vs %d", what, len(a.placements), len(b.placements))
	}
	for i := range a.placements {
		if !samePlacement(a.placements[i], b.placements[i]) {
			t.Fatalf("%s: assignment %d placement differs: %v vs %v", what, i, a.placements[i], b.placements[i])
		}
		if a.admitted[i] != b.admitted[i] {
			t.Fatalf("%s: assignment %d admission speedup/time bits differ: %x vs %x", what, i, a.admitted[i], b.admitted[i])
		}
	}
	if !bytes.Equal(a.final, b.final) {
		t.Fatalf("%s: final joint predictions differ:\n%s\n%s", what, a.final, b.final)
	}
	if ja, jb := journalBytes(t, a.journal, withCache), journalBytes(t, b.journal, withCache); !bytes.Equal(ja, jb) {
		t.Fatalf("%s: journals differ:\n%s\n%s", what, ja, jb)
	}
}

// TestPredictionCacheDecisionInvariant runs an identical submit → degrade →
// rebalance → drain sequence on a cached and an uncached scheduler and
// requires byte-for-byte identical reports, final placements, admission
// predictions, final joint predictions and journals (apart from the
// cache-traffic counts): the shared prediction cache, its compact score
// entries and the dominance pruning are pure accelerations, never decision
// changes.
func TestPredictionCacheDecisionInvariant(t *testing.T) {
	defer leaktest.Check(t)()
	cached := newDriven(t, Config{})
	uncached := newDriven(t, Config{DisablePredictionCache: true})
	requireSameOutcome(t, "cached vs uncached", driveScheduler(t, cached), driveScheduler(t, uncached), false)

	if st := cached.PredictionCacheStats(); st.Hits == 0 {
		t.Fatalf("cached scheduler never hit its cache: %+v", st)
	}
	if st := uncached.PredictionCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("uncached scheduler touched a cache: %+v", st)
	}
}

// TestDecisionsUnderInvariantChecks is the twin run with the runtime
// invariant checks on, under which every score-only solve routes through
// the full joint prediction: the decisions, predictions, journal and cache
// traffic must not change.
func TestDecisionsUnderInvariantChecks(t *testing.T) {
	defer leaktest.Check(t)()
	plain := driveScheduler(t, newDriven(t, Config{}))
	defer core.SetInvariantChecks(core.SetInvariantChecks(true))
	checked := driveScheduler(t, newDriven(t, Config{}))
	requireSameOutcome(t, "invariant checks on vs off", plain, checked, true)
}

// TestSnapshotsIgnoreCallerMutation pins the snapshot semantics: the
// scheduler copies the machine description at New and each job's workload
// at Submit, and digests the copies once. Mutating the caller's description
// and workloads after they were handed over must change no later score or
// decision, and must not serve a cache entry computed for other content:
// the mutated run's decisions, predictions and cache traffic equal the
// pristine run's, and an uncached mutated run decides the same.
func TestSnapshotsIgnoreCallerMutation(t *testing.T) {
	type outcome struct {
		decisions []byte
		stats     core.CacheStats
	}
	run := func(mutate bool, cfg Config) outcome {
		md := testMD(t)
		s, err := New(md, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c1, m1 := computeJob("c1"), memoryJob("m1")
		c1.Threads, m1.Threads = 4, 6
		for _, job := range []Job{c1, m1} {
			a, err := s.Submit(job)
			if err != nil {
				t.Fatal(err)
			}
			if a.Job.Workload != job.Workload {
				t.Fatalf("Assignment.Job.Workload of %s is not the caller's pointer", job.ID)
			}
		}
		if mutate {
			md.DRAMBW /= 50
			md.CorePeakInstr *= 3
			c1.Workload.ParallelFrac = 0.5
			m1.Workload.Demand.DRAM *= 10
			m1.Workload.Name = "renamed"
		}
		if _, err := s.Submit(computeJob("c2")); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Rebalance(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Moves) > 0 {
			if err := s.ApplyMove(rep.Moves[0]); err != nil {
				t.Fatal(err)
			}
		}
		co, err := s.Predict()
		if err != nil {
			t.Fatal(err)
		}
		var placed []string
		for _, a := range s.Assignments() {
			placed = append(placed, a.Job.ID+" "+a.Placement.String())
		}
		decisions, err := json.Marshal(struct {
			Rebalance *RebalanceReport
			Placed    []string
			Final     json.RawMessage
		}{rep, placed, predictionJSON(t, co)})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{decisions, s.PredictionCacheStats()}
	}
	pristine := run(false, Config{})
	mutated := run(true, Config{})
	uncached := run(true, Config{DisablePredictionCache: true})
	if !bytes.Equal(pristine.decisions, mutated.decisions) {
		t.Fatalf("caller mutation changed decisions:\n%s\n%s", pristine.decisions, mutated.decisions)
	}
	if pristine.stats != mutated.stats {
		t.Fatalf("caller mutation changed cache traffic: %+v vs %+v", pristine.stats, mutated.stats)
	}
	if !bytes.Equal(mutated.decisions, uncached.decisions) {
		t.Fatalf("cached and uncached runs decided differently after caller mutation:\n%s\n%s",
			mutated.decisions, uncached.decisions)
	}
}
