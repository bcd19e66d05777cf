package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestJournalNilAndDisabled(t *testing.T) {
	var nilJ *Journal
	if nilJ.Enabled() {
		t.Fatal("nil journal reports enabled")
	}
	if got := nilJ.NextID(); got != 0 {
		t.Fatalf("nil NextID = %d, want 0", got)
	}
	if nilJ.Records() != nil || nilJ.Incidents() != nil {
		t.Fatal("nil journal returned non-nil records or incidents")
	}
	if nilJ.Recorded() != 0 || nilJ.Dropped() != 0 {
		t.Fatal("nil journal reports traffic")
	}
	nilJ.Record(DecisionRecord{Op: "submit"}) // must not panic
	nilJ.Incident("slo-rejection", 1, "job", "detail")

	j := NewJournal(4, nil)
	if j.Enabled() {
		t.Fatal("fresh journal should start disabled until SetEnabled")
	}
	j.Record(DecisionRecord{Op: "submit"})
	if got := j.Recorded(); got != 0 {
		t.Fatalf("disabled journal recorded %d", got)
	}
	j.SetEnabled(true)
	j.Record(DecisionRecord{Op: "submit"})
	if got := j.Recorded(); got != 1 {
		t.Fatalf("enabled journal recorded %d, want 1", got)
	}
}

func TestJournalWraparoundKeepsNewestInSeqOrder(t *testing.T) {
	for _, tc := range []struct{ capacity, writes int }{
		{4, 10},
		// A full-size ring wrapped with its head mid-ring: the slot copy is
		// one rotated sorted run, the worst case for a naive insertion sort.
		{8192, 8192 + 4096},
	} {
		clock := NewManualClock(0, 1)
		j := NewJournal(tc.capacity, clock)
		j.SetEnabled(true)
		for i := 0; i < tc.writes; i++ {
			j.Record(DecisionRecord{ID: j.NextID(), Op: "submit", Job: fmt.Sprintf("job-%02d", i)})
		}
		recs := j.Records()
		if len(recs) != tc.capacity {
			t.Fatalf("ring of %d holds %d records", tc.capacity, len(recs))
		}
		oldest := tc.writes - tc.capacity // index of the oldest surviving write
		for i, r := range recs {
			wantSeq := int64(oldest + 1 + i)
			if r.Seq != wantSeq {
				t.Fatalf("cap %d: record %d has seq %d, want %d (newest %d, oldest first)",
					tc.capacity, i, r.Seq, wantSeq, tc.capacity)
			}
			if wantJob := fmt.Sprintf("job-%02d", oldest+i); r.Job != wantJob {
				t.Fatalf("cap %d: record %d is %q, want %q", tc.capacity, i, r.Job, wantJob)
			}
			// The ManualClock ticks once per Record, so time tracks seq.
			if want := float64(wantSeq - 1); r.Time != want {
				t.Fatalf("cap %d: record %d stamped t=%g, want %g", tc.capacity, i, r.Time, want)
			}
		}
		if got := j.Recorded(); got != int64(tc.writes) {
			t.Fatalf("cap %d: Recorded = %d, want %d", tc.capacity, got, tc.writes)
		}
		if got := j.Dropped(); got != int64(oldest) {
			t.Fatalf("cap %d: Dropped = %d, want %d", tc.capacity, got, oldest)
		}
	}
}

// TestJournalConcurrentWriters hammers one small ring from many goroutines
// under -race: every slot stays internally consistent and the ticket count
// is exact.
func TestJournalConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 500
	j := NewJournal(16, nil)
	j.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := j.NextID()
				j.Record(DecisionRecord{
					ID: id, Op: "submit", Job: fmt.Sprintf("w%d-%d", w, i),
					Candidates: w, Score: float64(i),
				})
				if i%100 == 0 {
					j.Records() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()
	if got := j.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
	recs := j.Records()
	if len(recs) != 16 {
		t.Fatalf("ring of 16 holds %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("records not strictly seq-ordered: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	if got := j.Dropped(); got != writers*perWriter-16 {
		t.Fatalf("Dropped = %d, want %d", got, writers*perWriter-16)
	}
}

// TestJournalJSONLByteStable pins the dump-on-demand encoding: two dumps of
// the same ManualClock-stamped journal are byte-identical, one line per
// record, and each line round-trips through UnmarshalJSON.
func TestJournalJSONLByteStable(t *testing.T) {
	build := func() *Journal {
		clock := NewManualClock(10, 0.5)
		j := NewJournal(8, clock)
		j.SetEnabled(true)
		rec := DecisionRecord{ID: j.NextID(), Op: "submit", Job: "a",
			Outcome: "admitted", Placement: "[s0/c0/t0]", Strategy: "pack",
			Score: 1.5, Candidates: 3, CacheHits: 2, CacheMisses: 1}
		rec.AddAlternative(Alternative{Placement: "[s0/c1/t0]", Strategy: "spread", Score: 1.25})
		j.Record(rec)
		j.Record(DecisionRecord{ID: j.NextID(), Parent: 1, Op: "evict", Job: "b",
			Outcome: "evicted", Reason: "eviction", Cause: "context failed"})
		return j
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("journal JSONL not byte-stable:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	lines := bytes.Split(bytes.TrimSpace(b1.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2", len(lines))
	}
	var back DecisionRecord
	if err := json.Unmarshal(lines[0], &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.ID != 1 || back.Op != "submit" || back.AltCount != 1 ||
		back.Alternatives[0].Strategy != "spread" || back.Time != 10 {
		t.Fatalf("round-trip mangled the record: %+v", back)
	}
}

func TestDecisionRecordAddAlternativeSortedBounded(t *testing.T) {
	var r DecisionRecord
	for _, score := range []float64{2, 5, 1, 4, 3, 6} {
		r.AddAlternative(Alternative{Placement: fmt.Sprintf("p%g", score), Score: score})
	}
	alts := r.Alts()
	if len(alts) != MaxAlternatives {
		t.Fatalf("kept %d alternatives, want %d", len(alts), MaxAlternatives)
	}
	want := []float64{6, 5, 4, 3}
	for i, a := range alts {
		if a.Score != want[i] {
			t.Fatalf("alternative %d has score %g, want %g (top-k by score, descending)", i, a.Score, want[i])
		}
	}
	// A new low score bounces off a full set.
	r.AddAlternative(Alternative{Score: 0.5})
	if got := r.Alts()[MaxAlternatives-1].Score; got != 3 {
		t.Fatalf("low score displaced a better alternative: tail now %g", got)
	}
}

func TestJournalIncidentDeltasAndCap(t *testing.T) {
	cA := Default().Counter("test.journal.incident.a")
	cB := Default().Counter("test.journal.incident.b")
	clock := NewManualClock(100, 0)
	j := NewJournal(4, clock)
	j.SetEnabled(true)
	j.Record(DecisionRecord{ID: j.NextID(), Op: "submit", Job: "x", Outcome: "rejected", Reason: "slo-exceeded"})

	cA.Add(3)
	j.Incident("slo-rejection", 1, "x", "worst slowdown 3.1 > SLO 2.5")
	cB.Add(2)
	j.Incident("eviction", 2, "y", "context failed")

	dumps := j.Incidents()
	if len(dumps) != 2 {
		t.Fatalf("got %d incident dumps, want 2", len(dumps))
	}
	first, second := dumps[0], dumps[1]
	if first.ID != 1 || first.Trigger != "slo-rejection" || first.Decision != 1 || first.Job != "x" {
		t.Fatalf("first dump mis-attributed: %+v", first)
	}
	if first.Time != 100 {
		t.Fatalf("first dump at t=%g, want 100", first.Time)
	}
	if len(first.Records) != 1 || first.Records[0].Op != "submit" {
		t.Fatalf("first dump window wrong: %+v", first.Records)
	}
	// Deltas are per-window: the first dump sees cA's movement, the second
	// only cB's (the baseline advanced).
	if got := first.MetricDeltas["test.journal.incident.a"]; got != 3 {
		t.Fatalf("first dump delta a = %d, want 3", got)
	}
	if _, leaked := second.MetricDeltas["test.journal.incident.a"]; leaked {
		t.Fatal("second dump re-reports the first window's movement")
	}
	if got := second.MetricDeltas["test.journal.incident.b"]; got != 2 {
		t.Fatalf("second dump delta b = %d, want 2", got)
	}
	// Gauges never appear in incident deltas.
	Default().Gauge("test.journal.incident.gauge").Set(42)
	j.Incident("eviction", 3, "z", "more")
	for name := range j.Incidents()[2].MetricDeltas {
		if name == "test.journal.incident.gauge" {
			t.Fatal("gauge leaked into incident deltas")
		}
	}

	// The retained list is capped; the counter keeps counting.
	before := j.Incidents()
	for i := 0; i < maxIncidentDumps+5; i++ {
		j.Incident("eviction", 0, "", "flood")
	}
	after := j.Incidents()
	if len(after) > maxIncidentDumps {
		t.Fatalf("retained %d dumps, cap is %d", len(after), maxIncidentDumps)
	}
	if len(after) < len(before) {
		t.Fatal("flooding removed retained dumps")
	}
}

func TestJournalResetKeepsIdentityCounters(t *testing.T) {
	j := NewJournal(4, nil)
	j.SetEnabled(true)
	j.Record(DecisionRecord{ID: j.NextID(), Op: "submit"})
	j.Incident("eviction", 1, "", "")
	j.Reset()
	if len(j.Records()) != 0 || len(j.Incidents()) != 0 {
		t.Fatal("Reset left records or incidents behind")
	}
	if !j.Enabled() {
		t.Fatal("Reset disabled the journal")
	}
	if id := j.NextID(); id != 2 {
		t.Fatalf("Reset rewound the id counter: next id %d, want 2", id)
	}
}

func TestJournalHandlerMatchesJSONLDump(t *testing.T) {
	j := NewJournal(8, NewManualClock(0, 1))
	j.SetEnabled(true)
	for i := 0; i < 3; i++ {
		j.Record(DecisionRecord{ID: j.NextID(), Op: "submit", Job: fmt.Sprintf("j%d", i), Outcome: "admitted"})
	}
	rr := httptest.NewRecorder()
	j.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/decisions", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var out struct {
		Records  []DecisionRecord `json:"records"`
		Recorded int64            `json:"recorded"`
		Dropped  int64            `json:"dropped"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Recorded != 3 || out.Dropped != 0 {
		t.Fatalf("handler reports recorded=%d dropped=%d", out.Recorded, out.Dropped)
	}
	// The handler serves the same records the JSONL dump writes.
	want := j.Records()
	if len(out.Records) != len(want) {
		t.Fatalf("handler served %d records, dump has %d", len(out.Records), len(want))
	}
	for i := range want {
		hb, _ := json.Marshal(out.Records[i])
		db, _ := json.Marshal(want[i])
		if !bytes.Equal(hb, db) {
			t.Fatalf("record %d differs between handler and dump:\n%s\n%s", i, hb, db)
		}
	}
}
