package core

import (
	"slices"
	"testing"

	"pandia/internal/machine"
	"pandia/internal/placement"
	"pandia/internal/topology"
)

// quickMix is a two-job co-schedule on quickMachine: the first job on
// socket 0, the second on socket 1.
func quickMix() []PlacedWorkload {
	var a, b placement.Placement
	for core := 0; core < 4; core++ {
		a = append(a, topology.Context{Socket: 0, Core: core})
		b = append(b, topology.Context{Socket: 1, Core: core}, topology.Context{Socket: 1, Core: core, Slot: 1})
	}
	return []PlacedWorkload{
		{Workload: quickWorkload(40, 90, 130, 255, 170, 60, 100), Placement: a},
		{Workload: quickWorkload(120, 30, 200, 90, 250, 10, 60), Placement: b},
	}
}

// mixKey derives placed's key from digests taken now, as a caller that
// keeps no digests would: one placed digest per job, folded by Key.
func mixKey(c *CoCache, md *machine.Description, placed []PlacedWorkload, opt Options) (uint64, uint64) {
	digests := make([]Digest, len(placed))
	for i, pw := range placed {
		digests[i] = PlacedDigest(DigestWorkload(pw.Workload), pw.Placement)
	}
	return c.Key(DigestMachine(md, opt), digests)
}

// TestCoCacheKeyMutation mutates the machine description and a workload in
// place after storing an entry. Re-digesting the mutated content gives a
// different key and verifier, so the stale entry is never served, while
// re-deriving the key of the unchanged inputs still hits.
func TestCoCacheKeyMutation(t *testing.T) {
	md := quickMachine()
	placed := quickMix()
	c := NewCoCache(0)
	co, err := PredictCoSchedule(md, placed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, verify := mixKey(c, md, placed, Options{})
	c.Store(key, verify, co)
	if k, v := mixKey(c, md, placed, Options{}); k != key || v != verify {
		t.Fatal("key of unchanged inputs is not stable")
	}
	if _, got, ok := c.LookupScore(key, verify, nil); !ok || got != co {
		t.Fatalf("stored entry not served: ok=%v", ok)
	}

	md.DRAMBW /= 50 // in-place mutation
	mk, mv := mixKey(c, md, placed, Options{})
	if mk == key || mv == verify {
		t.Fatal("machine mutation left the key unchanged")
	}
	if _, _, ok := c.LookupScore(mk, mv, nil); ok {
		t.Fatal("stale entry served after machine mutation")
	}
	md.DRAMBW *= 50

	placed[1].Workload.ParallelFrac /= 2
	wk, wv := mixKey(c, md, placed, Options{})
	if wk == key || wv == verify {
		t.Fatal("workload mutation left the key unchanged")
	}
	if _, _, ok := c.LookupScore(wk, wv, nil); ok {
		t.Fatal("stale entry served after workload mutation")
	}
}

// TestCoCacheKeyContexts checks the packed context words: placements that
// differ in one context get distinct digests, also when a component is
// negative or too wide to pack and so would alias a neighbouring field.
func TestCoCacheKeyContexts(t *testing.T) {
	md := quickMachine()
	c := NewCoCache(0)
	ctxs := []topology.Context{
		{}, {Slot: 1}, {Core: 1}, {Socket: 1},
		{Core: 1 << 21}, {Slot: 1 << 21}, {Socket: 1 << 21}, {Slot: 1<<21 - 1},
		{Socket: -1}, {Core: -1}, {Slot: -1}, {Socket: -1, Core: -1, Slot: -1},
	}
	w := quickMix()[0].Workload
	type digest struct{ key, verify uint64 }
	seen := map[digest]topology.Context{}
	for _, ctx := range ctxs {
		k, v := mixKey(c, md, []PlacedWorkload{{Workload: w, Placement: placement.Placement{ctx}}}, Options{})
		for d, other := range seen {
			if d.key == k || d.verify == v {
				t.Fatalf("contexts %v and %v share a digest", ctx, other)
			}
		}
		seen[digest{k, v}] = ctx
	}
}

// TestCoCacheEviction fills a capacity-4 cache and stores one more entry:
// the table is dropped wholesale, so only the newest entry is served and
// all four older ones count as evictions.
func TestCoCacheEviction(t *testing.T) {
	md := quickMachine()
	c := NewCoCache(4)
	type entry struct{ key, verify uint64 }
	var stored []entry
	for seed := uint16(0); seed < 5; seed++ {
		placed := quickMix()
		placed[1].Placement = placed[1].Placement[:1+seed]
		k, v := mixKey(c, md, placed, Options{})
		c.Store(k, v, &CoPrediction{})
		stored = append(stored, entry{k, v})
	}
	if st := c.Stats(); st.Evictions != 4 {
		t.Fatalf("Evictions = %d after 5 stores into capacity 4, want 4", st.Evictions)
	}
	for i, e := range stored {
		_, _, ok := c.LookupScore(e.key, e.verify, nil)
		if want := i == len(stored)-1; ok != want {
			t.Errorf("entry %d served = %v, want %v", i, ok, want)
		}
	}
}

// TestCoCacheJobOrder checks that permuting the jobs of one mix gives a
// distinct key: the joint solver's accumulation is order-sensitive, so the
// two orders are different solves.
func TestCoCacheJobOrder(t *testing.T) {
	md := quickMachine()
	placed := quickMix()
	c := NewCoCache(0)
	k1, v1 := mixKey(c, md, placed, Options{})
	k2, v2 := mixKey(c, md, []PlacedWorkload{placed[1], placed[0]}, Options{})
	if k1 == k2 || v1 == v2 {
		t.Fatalf("permuted mix shares a digest: keys %x/%x, verifiers %x/%x", k1, k2, v1, v2)
	}
}

// TestCoCacheKeyTwoLevel checks that folding one placed digest per job
// keeps apart the mixes a flat key over every context keeps apart: two job
// orders of one mix, one context moved to another core, and two jobs with
// the same workload swapping their placements.
func TestCoCacheKeyTwoLevel(t *testing.T) {
	md := quickMachine()
	c := NewCoCache(0)
	base := quickMix()
	type digest struct{ key, verify uint64 }
	key := func(placed []PlacedWorkload) digest {
		k, v := mixKey(c, md, placed, Options{})
		return digest{k, v}
	}
	distinct := func(name string, a, b []PlacedWorkload) {
		t.Helper()
		if ka, kb := key(a), key(b); ka.key == kb.key || ka.verify == kb.verify {
			t.Errorf("%s: mixes share a digest (%x/%x vs %x/%x)", name, ka.key, ka.verify, kb.key, kb.verify)
		}
	}

	distinct("job order", base, []PlacedWorkload{base[1], base[0]})

	moved := quickMix()
	moved[0].Placement[3] = topology.Context{Socket: 0, Core: 4}
	distinct("context moved to another core", base, moved)

	w := base[0].Workload
	same := []PlacedWorkload{{Workload: w, Placement: base[0].Placement}, {Workload: w, Placement: base[1].Placement}}
	swapped := []PlacedWorkload{{Workload: w, Placement: base[1].Placement}, {Workload: w, Placement: base[0].Placement}}
	distinct("same workload, placements swapped", same, swapped)
}

// TestPlacedDigestOrder checks that a placed digest follows the context
// order: a permuted placement is a distinct input to the solver's
// order-sensitive sums, so it digests differently, while the same contexts
// in the same order digest identically.
func TestPlacedDigestOrder(t *testing.T) {
	w := DigestWorkload(quickMix()[1].Workload)
	p := quickMix()[1].Placement
	perm := append(placement.Placement(nil), p...)
	perm[0], perm[1] = perm[1], perm[0]
	d, again, permuted := PlacedDigest(w, p), PlacedDigest(w, slices.Clone(p)), PlacedDigest(w, perm)
	if d != again {
		t.Fatal("placed digest of an equal placement differs")
	}
	if d.key == permuted.key || d.verify == permuted.verify {
		t.Fatalf("permuted placement shares a digest: %+v", d)
	}
}

// TestCoCacheScoreFromFullEntry checks that a score lookup on a full entry
// is a hit served from that entry: the speedups and worst resource are the
// stored prediction's, and the prediction itself comes back with them.
func TestCoCacheScoreFromFullEntry(t *testing.T) {
	md := quickMachine()
	placed := quickMix()
	co, err := PredictCoSchedule(md, placed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoCache(0)
	key, verify := mixKey(c, md, placed, Options{})
	c.Store(key, verify, co)
	sc, full, ok := c.LookupScore(key, verify, nil)
	if !ok || full != co {
		t.Fatalf("score lookup on a full entry: ok=%v, served %p, stored %p", ok, full, co)
	}
	for i, p := range co.Predictions {
		if sc.Speedups[i] != p.Speedup {
			t.Fatalf("job %d: served speedup %v, stored %v", i, sc.Speedups[i], p.Speedup)
		}
	}
	if sc.WorstOversubscription != co.WorstOversubscription || sc.WorstResource != co.WorstResource {
		t.Fatalf("served worst %v on %v, stored %v on %v", sc.WorstOversubscription, sc.WorstResource,
			co.WorstOversubscription, co.WorstResource)
	}
	if st := c.Stats(); st != (CacheStats{Hits: 1}) {
		t.Fatalf("stats %+v, want one hit", st)
	}
}

// TestCoCacheUpgradeCompactEntry checks the full path over a compact entry:
// a lookup counts one hit and serves no full prediction, and Store replaces
// the entry with the full prediction in place. Even in a full table the
// replacement drops nothing, so the counters move only by the lookups.
func TestCoCacheUpgradeCompactEntry(t *testing.T) {
	md := quickMachine()
	placed := quickMix()
	cp, err := NewCoPredictor(md, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cp.Score(placed, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoCache(1)
	key, verify := mixKey(c, md, placed, Options{})
	c.StoreScore(key, verify, sc)
	got, _, ok := c.LookupScore(key, verify, nil)
	if !ok || got.Speedups[0] != sc.Speedups[0] || got.WorstResource != sc.WorstResource {
		t.Fatalf("compact entry served %+v (ok=%v), stored %+v", got, ok, sc)
	}

	_, co, ok := c.LookupScore(key, verify, nil)
	if !ok || co != nil {
		t.Fatalf("lookup on a compact entry served prediction %p (ok=%v), want a hit with none", co, ok)
	}
	co, err = cp.Predict(placed)
	if err != nil {
		t.Fatal(err)
	}
	c.Store(key, verify, co)
	if _, served, ok := c.LookupScore(key, verify, nil); !ok || served != co {
		t.Fatalf("upgraded entry not served: ok=%v", ok)
	}
	if st := c.Stats(); st != (CacheStats{Hits: 3}) {
		t.Fatalf("stats %+v, want three hits and nothing else", st)
	}
	if n := len(c.m); n != 1 {
		t.Fatalf("table holds %d entries after the in-place upgrade, want 1", n)
	}
}

// TestPredictSweepPrunedMatchesFull checks dominance pruning is admissible:
// every placement the pruned sweep does solve is bit-identical to the full
// sweep, every pruned placement's lockstep bound, and its speedup in the
// full sweep, really are below the target fraction of the returned best,
// and the best placement itself survives.
func TestPredictSweepPrunedMatchesFull(t *testing.T) {
	md := quickMachine()
	w := quickWorkload(100, 80, 160, 120, 220, 70, 150)
	// A placement set with varied thread counts, so the Amdahl bound has
	// real spread to prune against.
	var pls []placement.Placement
	for seed := uint16(0); seed < 200; seed++ {
		pls = append(pls, quickPlacement(md.Topo, seed, uint8(seed*3)))
	}
	sweep, err := PredictSweep(md, w, pls, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const frac = 0.95
	pruned, stats, err := PredictSweepPruned(md, w, pls, Options{}, frac)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != len(sweep) {
		t.Fatalf("length mismatch: %d vs %d", len(pruned), len(sweep))
	}
	if stats.Evaluated+stats.Pruned != int64(len(pls)) {
		t.Fatalf("stats do not cover the sweep: %+v over %d placements", stats, len(pls))
	}

	// Best of the full sweep, strict-> argmax as Recommend uses.
	best, bestIdx := -1.0, -1
	for i, p := range sweep {
		if p.Speedup > best {
			best, bestIdx = p.Speedup, i
		}
	}
	if pruned[bestIdx].Pruned {
		t.Fatalf("best placement %d was pruned", bestIdx)
	}
	p, err := NewPredictor(md, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pruned {
		if pruned[i].Pruned {
			if bound := p.speedupBound(pls[i]); bound >= frac*best {
				t.Fatalf("placement %d pruned with bound %.6f >= %.6f", i, bound, frac*best)
			}
			if sweep[i].Speedup >= frac*best {
				t.Fatalf("placement %d pruned with speedup %.6f >= %.6f", i, sweep[i].Speedup, frac*best)
			}
			continue
		}
		if pruned[i] != sweep[i] {
			t.Fatalf("placement %d: pruned sweep %+v != full sweep %+v", i, pruned[i], sweep[i])
		}
	}
	if stats.Pruned == 0 {
		t.Fatal("sweep pruned nothing; test exercises no pruning")
	}
}
