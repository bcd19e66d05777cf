package scheduler

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/core"
	"pandia/internal/obs"
	"pandia/internal/placement"
)

// driveOutcome is everything a driveScheduler run decided: the serialised
// rebalance and drain reports, the final assignments' placements and
// admission-time predictions, and the decision journal.
type driveOutcome struct {
	rebalance, drain []byte
	placements       []placement.Placement
	predictions      [][]byte
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

// predictionJSON serialises a prediction, with its load map keyed by the
// resource names (encoding/json cannot key a map by ResourceID).
func predictionJSON(t *testing.T, p *core.Prediction) []byte {
	t.Helper()
	loads := make(map[string]float64, len(p.Loads))
	for id, v := range p.Loads {
		loads[id.String()] = v
	}
	b, err := json.Marshal(struct {
		*core.Prediction
		Loads map[string]float64
	}{p, loads})
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

	drep, err := s.DrainSocket(0, DrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.drain, err = json.Marshal(drep); err != nil {
		t.Fatal(err)
	}

	for _, a := range s.Assignments() {
		out.placements = append(out.placements, a.Placement)
		out.predictions = append(out.predictions, predictionJSON(t, a.Prediction))
	}
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
		if !bytes.Equal(a.predictions[i], b.predictions[i]) {
			t.Fatalf("%s: assignment %d prediction differs:\n%s\n%s", what, i, a.predictions[i], b.predictions[i])
		}
	}
	if ja, jb := journalBytes(t, a.journal, withCache), journalBytes(t, b.journal, withCache); !bytes.Equal(ja, jb) {
		t.Fatalf("%s: journals differ:\n%s\n%s", what, ja, jb)
	}
}

// TestPredictionCacheDecisionInvariant runs an identical submit → degrade →
// rebalance → drain sequence on a cached and an uncached scheduler and
// requires byte-for-byte identical reports, final placements, admission
// predictions and journals (apart from the cache-traffic counts): the
// shared prediction cache, its compact score entries and the dominance
// pruning are pure accelerations, never decision changes.
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

// TestInvalidatePredictions checks the scheduler's bulk invalidation hook
// drops the cache without changing subsequent decisions.
func TestInvalidatePredictions(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(func() Job { j := computeJob("c1"); j.Threads = 4; return j }()); err != nil {
		t.Fatal(err)
	}
	before, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	s.InvalidatePredictions()
	misses := s.PredictionCacheStats().Misses
	after, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PredictionCacheStats().Misses; got != misses+1 {
		t.Fatalf("post-invalidate Predict was not a miss: %d -> %d", misses, got)
	}
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if !bytes.Equal(bj, aj) {
		t.Fatal("prediction changed across InvalidatePredictions")
	}
}
