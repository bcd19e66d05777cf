package scheduler

import (
	"fmt"
	"slices"
	"testing"

	"pandia/internal/analysis/leaktest"
	"pandia/internal/obs"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

func pandiaCtx(s0, c, t0 int) topology.Context {
	return topology.Context{Socket: s0, Core: c, Slot: t0}
}

// TestRebalanceRecoversFromBadPlacement degrades a compute job's placement
// by hand (packing it two-per-core) and checks the advisor proposes moving
// it back out, with a believable gain estimate.
//
// Note the scenario construction: with a competent Submit, profitable
// moves after job departures are rare in this model, because placement
// quality depends only on the canonical shape and departures free up
// sibling contexts in place. The advisor earns its keep when a job was
// admitted into a forced bad shape under crowding.
func TestRebalanceRecoversFromBadPlacement(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := computeJob("c1") // burstiness makes core sharing costly
	j.Threads = 8
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade: pack the 8 threads onto 4 cores of socket 0.
	var packed placement.Placement
	for core := 0; core < 4; core++ {
		for slot := 0; slot < 2; slot++ {
			packed = append(packed, pandiaCtx(0, core, slot))
		}
	}
	if err := s.ApplyMove(Move{JobID: "c1", From: a.Placement, To: packed}); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Rebalance(0.02)
	if err != nil {
		t.Fatal(err)
	}
	moves := rep.Moves
	if len(moves) == 0 {
		t.Fatal("advisor found no way out of a packed compute placement")
	}
	m := moves[0]
	if m.JobID != "c1" || m.Gain <= 0.02 {
		t.Fatalf("best move = %+v", m)
	}
	if placement.ShapeOf(s.Machine(), m.To).Cores() <= 4 {
		t.Fatalf("advised shape still packed: %v", m.To)
	}
	if err := s.ApplyMove(m); err != nil {
		t.Fatal(err)
	}
	if !samePlacement(s.Assignments()[0].Placement, m.To) {
		t.Fatal("move not applied")
	}
	if got := len(s.FreeContexts()); got != s.Machine().TotalContexts()-8 {
		t.Fatalf("free contexts = %d after move", got)
	}
	// Re-applying stale advice must fail.
	if err := s.ApplyMove(m); err == nil {
		t.Fatal("stale move accepted")
	}
	// Advice on the recovered state should find nothing substantial.
	again, err := s.Rebalance(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Moves) != 0 {
		t.Fatalf("advisor still unhappy after recovery: %+v", again.Moves)
	}
}

// TestRebalanceReport pins the visibility satellite: every advised move
// must carry per-job before/after predicted times for the whole mix, the
// report must name the jobs and their base times, and the metrics registry
// must record the run.
func TestRebalanceReport(t *testing.T) {
	defer leaktest.Check(t)()
	base := obs.Default().Snapshot()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := computeJob("c1")
	j.Threads = 8
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	var packed placement.Placement
	for core := 0; core < 4; core++ {
		for slot := 0; slot < 2; slot++ {
			packed = append(packed, pandiaCtx(0, core, slot))
		}
	}
	if err := s.ApplyMove(Move{JobID: "c1", From: a.Placement, To: packed}); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Rebalance(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Moves) == 0 {
		t.Fatal("no report for a recoverable bad placement")
	}
	if len(rep.JobIDs) != 1 || rep.JobIDs[0] != "c1" || len(rep.BaseTimes) != 1 {
		t.Fatalf("report jobs = %v, times = %v", rep.JobIDs, rep.BaseTimes)
	}
	if rep.BaseScore <= 0 || rep.BaseTimes[0] <= 0 {
		t.Fatalf("degenerate base: %+v", rep)
	}
	requireBaseMatchesPredict(t, s, rep)
	for _, m := range rep.Moves {
		if len(m.Deltas) != len(rep.JobIDs) {
			t.Fatalf("move %+v: %d deltas for %d jobs", m, len(m.Deltas), len(rep.JobIDs))
		}
		for k, d := range m.Deltas {
			if d.JobID != rep.JobIDs[k] {
				t.Errorf("delta %d names %q, want %q", k, d.JobID, rep.JobIDs[k])
			}
			if d.Before != rep.BaseTimes[k] {
				t.Errorf("delta %d before = %g, base time = %g", k, d.Before, rep.BaseTimes[k])
			}
			if d.After <= 0 {
				t.Errorf("delta %d after = %g", k, d.After)
			}
		}
	}
	// The single-job mix improves: the best move must predict a faster time
	// for the moved job, consistent with its positive gain.
	best := rep.Moves[0]
	if best.Deltas[0].After >= best.Deltas[0].Before {
		t.Errorf("best move gains %.3f but time goes %g -> %g",
			best.Gain, best.Deltas[0].Before, best.Deltas[0].After)
	}

	snap := obs.Default().Snapshot()
	if d := snap.Counter("scheduler.rebalance.runs") - base.Counter("scheduler.rebalance.runs"); d != 1 {
		t.Errorf("rebalance.runs grew by %d, want 1", d)
	}
	if d := snap.Counter("scheduler.rebalance.moves_advised") - base.Counter("scheduler.rebalance.moves_advised"); d != int64(len(rep.Moves)) {
		t.Errorf("moves_advised grew by %d, want %d", d, len(rep.Moves))
	}
	if d := snap.Counter("scheduler.submissions") - base.Counter("scheduler.submissions"); d != 1 {
		t.Errorf("submissions grew by %d, want 1", d)
	}

	// With the best move applied, each delta's After must be the time the
	// joint model now predicts for its job, bit for bit.
	if err := s.ApplyMove(best); err != nil {
		t.Fatal(err)
	}
	co, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Predictions) != len(best.Deltas) {
		t.Fatalf("Predict covers %d jobs, best move %d deltas", len(co.Predictions), len(best.Deltas))
	}
	for k, d := range best.Deltas {
		if d.After != co.Predictions[k].Time {
			t.Errorf("job %s: delta after %v, Predict time after the move %v", d.JobID, d.After, co.Predictions[k].Time)
		}
	}
}

// TestRebalanceAdvisesEachMoveOnce crowds two memory jobs onto socket 1
// and leaves socket 0 empty. Re-placing either job, pack and quiet-socket
// then generate the same placement on socket 0; it must be advised once.
func TestRebalanceAdvisesEachMoveOnce(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"m1", "m2"} {
		j := memoryJob(id)
		j.Threads = 4
		a, err := s.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		var to placement.Placement
		for core := 2 * i; core < 2*i+2; core++ {
			to = append(to, pandiaCtx(1, core, 0), pandiaCtx(1, core, 1))
		}
		if err := s.ApplyMove(Move{JobID: id, From: a.Placement, To: to}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Rebalance(0)
	if err != nil {
		t.Fatal(err)
	}
	packed := placement.Placement{pandiaCtx(0, 0, 0), pandiaCtx(0, 0, 1), pandiaCtx(0, 1, 0), pandiaCtx(0, 1, 1)}
	if !slices.ContainsFunc(rep.Moves, func(m Move) bool { return m.JobID == "m1" && slices.Equal(m.To, packed) }) {
		t.Fatalf("no move of m1 to %v among %+v", packed, rep.Moves)
	}
	if err := distinctMovesErr(rep.Moves); err != nil {
		t.Fatal(err)
	}
}

// distinctMovesErr reports an advised move that repeats an earlier move's
// job and target, or whose target holds exactly its source's contexts.
func distinctMovesErr(moves []Move) error {
	for i, m := range moves {
		if samePlacement(m.To, m.From) {
			return fmt.Errorf("move %+v does not move job %s", m, m.JobID)
		}
		for _, e := range moves[:i] {
			if e.JobID == m.JobID && slices.Equal(e.To, m.To) {
				return fmt.Errorf("job %s advised to %v twice, as %s and as %s", m.JobID, m.To, e.Strategy, m.Strategy)
			}
		}
	}
	return nil
}

func TestRebalanceEmpty(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Rebalance(0.01)
	if err != nil || rep != nil {
		t.Fatalf("empty scheduler advice = %v, %v", rep, err)
	}
}

func TestApplyMoveValidation(t *testing.T) {
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyMove(Move{JobID: "ghost"}); err == nil {
		t.Error("move for unknown job accepted")
	}
	j := computeJob("a")
	j.Threads = 2
	a, err := s.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	// A move onto occupied foreign contexts must fail.
	j2 := computeJob("b")
	j2.Threads = 2
	b, err := s.Submit(j2)
	if err != nil {
		t.Fatal(err)
	}
	bad := Move{JobID: "a", From: a.Placement, To: b.Placement}
	if err := s.ApplyMove(bad); err == nil {
		t.Error("move onto another job's contexts accepted")
	}
}

func TestSamePlacement(t *testing.T) {
	a := placement.Placement{{Socket: 0, Core: 1, Slot: 0}, {Socket: 1, Core: 0, Slot: 1}}
	b := placement.Placement{{Socket: 1, Core: 0, Slot: 1}, {Socket: 0, Core: 1, Slot: 0}}
	if !samePlacement(a, b) {
		t.Error("order-insensitive equality failed")
	}
	c := placement.Placement{{Socket: 0, Core: 1, Slot: 0}}
	if samePlacement(a, c) {
		t.Error("different sizes compared equal")
	}
}

// requireBaseMatchesPredict checks that a Rebalance report's base, taken on
// the score path, is bit-equal to the full joint prediction of the same mix:
// each BaseTimes entry to its job's predicted Time, and BaseScore to the
// predicted speedups summed in job-ID order.
func requireBaseMatchesPredict(t *testing.T, s *Scheduler, rep *RebalanceReport) {
	t.Helper()
	co, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Predictions) != len(rep.BaseTimes) {
		t.Fatalf("Predict covers %d jobs, report %d", len(co.Predictions), len(rep.BaseTimes))
	}
	sum := 0.0
	for i, p := range co.Predictions {
		if rep.BaseTimes[i] != p.Time {
			t.Errorf("job %s: base time %v, Predict time %v", rep.JobIDs[i], rep.BaseTimes[i], p.Time)
		}
		sum += p.Speedup
	}
	if rep.BaseScore != sum {
		t.Errorf("base score %v, Predict's summed speedup %v", rep.BaseScore, sum)
	}
}
