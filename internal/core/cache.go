package core

import (
	"math"
	"sync"
	"sync/atomic"

	"pandia/internal/machine"
	"pandia/internal/placement"
)

// This file is the canonical prediction cache (DESIGN.md §12): an fnv64a
// content hash over (machine description, workload identity, placement,
// Options, cache epoch) mapping to previously computed predictions. A served
// entry is the exact value an earlier solve produced, so cache hits are
// bit-identical to cold solves by construction — the property the Fig10
// goldens and the scenario-corpus byte-identity gate pin.
//
// Invalidation is two-layered. Every key hashes the full *content* of the
// machine description and the workload, so mutating either simply stops the
// stale keys from ever being looked up again. On top of that, each cache
// carries an epoch that participates in every key: Invalidate bumps it and
// drops the table, giving callers an O(1) "forget everything" for bulk
// changes (a repaired description, a reloaded machine file).

// Canonical fnv64a parameters, plus an independent second accumulator used
// as a per-entry verifier: a lookup must match both 64-bit digests, so a
// collision on the map key alone cannot serve a wrong prediction.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// The verifier stream mixes with a different odd multiplier (the 64-bit
	// golden-ratio constant) from a different basis, so the two digests are
	// not correlated.
	verifyOffset64 = 0x6c62272e07bb0142
	verifyPrime64  = 0x9e3779b97f4a7c15
)

// canonHash accumulates the canonical key and its verifier in one pass.
// All methods are allocation-free so key derivation can run on the
// //pandia:noalloc fast path.
type canonHash struct{ key, verify uint64 }

func newCanonHash() canonHash { return canonHash{key: fnvOffset64, verify: verifyOffset64} }

func (h *canonHash) byte(b byte) {
	h.key = (h.key ^ uint64(b)) * fnvPrime64
	h.verify = (h.verify ^ uint64(b)) * verifyPrime64
}

func (h *canonHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

func (h *canonHash) f64(v float64) { h.word(math.Float64bits(v)) }
func (h *canonHash) int(v int)     { h.word(uint64(int64(v))) }

func (h *canonHash) bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *canonHash) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// workload folds in every Workload field the model reads (Demand.
// Interconnect is hashed too although the model derives interconnect
// traffic itself: splitting such keys is harmless, merging them would not
// be).
func (h *canonHash) workload(w *Workload) {
	h.str(w.Name)
	h.f64(w.T1)
	h.f64(w.Demand.Instr)
	h.f64(w.Demand.L1)
	h.f64(w.Demand.L2)
	h.f64(w.Demand.L3)
	h.f64(w.Demand.DRAM)
	h.f64(w.Demand.Interconnect)
	h.f64(w.ParallelFrac)
	h.f64(w.InterSocketOverhead)
	h.f64(w.LoadBalance)
	h.f64(w.Burstiness)
}

// machine folds in the full machine description content, so mutating any
// capacity or the topology shape changes every subsequent key.
func (h *canonHash) machine(md *machine.Description) {
	h.str(md.Topo.Name)
	h.int(md.Topo.Sockets)
	h.int(md.Topo.CoresPerSocket)
	h.int(md.Topo.ThreadsPerCore)
	h.f64(md.CorePeakInstr)
	h.f64(md.SMTFactor)
	h.f64(md.L1BW)
	h.f64(md.L2BW)
	h.f64(md.L3LinkBW)
	h.f64(md.L3AggBW)
	h.f64(md.DRAMBW)
	h.f64(md.InterconnectBW)
}

// options folds in every Options field that changes a prediction's value.
// Tracer, Cache, and SpanID are deliberately excluded: none affects the
// computed numbers, only how (and how fast) they are produced and how the
// trace events are labelled — folding SpanID in would fragment the cache
// per scheduler decision and destroy the hit rate.
func (h *canonHash) options(o Options) {
	h.int(o.MaxIterations)
	h.int(o.DampenAfter)
	h.f64(o.Tolerance)
	h.bool(o.AllowDegraded)
	h.bool(o.SinglePass)
	h.bool(o.DisableBurstiness)
	h.bool(o.DisableComm)
	h.bool(o.DisableLoadBalance)
}

func (h *canonHash) placement(p placement.Placement) {
	h.int(len(p))
	for _, c := range p {
		h.int(c.Socket)
		h.int(c.Core)
		h.int(c.Slot)
	}
}

// CacheStats is a cache's lifetime traffic. Hits plus Misses is the lookup
// count; Evictions counts entries dropped by capacity resets and explicit
// invalidation.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// HitRate is Hits over lookups, 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// timeEntry is one cached fast-path prediction with its verifier digest.
type timeEntry struct {
	verify uint64
	pred   TimePrediction
}

// PredictionCache memoizes fast-path TimePredictions under the canonical
// hash. It is safe for concurrent use (sweep workers share one), and a
// steady-state hit performs no heap allocation, so a Predictor with a cache
// attached keeps the //pandia:noalloc property of PredictTime.
//
// Capacity is bounded: when the table reaches capacity the whole table is
// dropped (counted in Stats().Evictions). Wholesale replacement instead of
// per-entry LRU keeps the hot path free of bookkeeping and — deliberately —
// free of map iteration, which detflow bans in this package.
type PredictionCache struct {
	mu       sync.RWMutex
	m        map[uint64]timeEntry
	capacity int

	epoch                   atomic.Uint64
	hits, misses, evictions atomic.Int64
}

// DefaultPredictionCacheSize bounds a PredictionCache built with capacity
// <= 0: large enough for a full placement enumeration of every zoo workload
// under two option sets, small enough to stay a few megabytes.
const DefaultPredictionCacheSize = 1 << 17

// NewPredictionCache builds an empty cache holding at most capacity entries
// (<= 0 selects DefaultPredictionCacheSize).
func NewPredictionCache(capacity int) *PredictionCache {
	if capacity <= 0 {
		capacity = DefaultPredictionCacheSize
	}
	return &PredictionCache{m: make(map[uint64]timeEntry), capacity: capacity}
}

// Invalidate bumps the cache epoch — every key derived before the call can
// no longer match — and drops the stored entries.
func (c *PredictionCache) Invalidate() {
	c.epoch.Add(1)
	c.mu.Lock()
	n := int64(len(c.m))
	c.m = make(map[uint64]timeEntry)
	c.mu.Unlock()
	c.evictions.Add(n)
	metCacheEvictions.Add(n)
}

// Stats returns the cache's lifetime hit/miss/eviction counts.
func (c *PredictionCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Len returns the current entry count (for tests and capacity tuning).
func (c *PredictionCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// lookup serves a stored prediction when both digests match.
//
//pandia:noalloc
func (c *PredictionCache) lookup(key, verify uint64) (TimePrediction, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || e.verify != verify {
		c.misses.Add(1)
		metCacheMisses.Inc()
		return TimePrediction{}, false
	}
	c.hits.Add(1)
	metCacheHits.Inc()
	return e.pred, true
}

// store records a freshly computed prediction. It runs only on the miss
// path, which already paid for a full solve, so its allocations (map insert,
// capacity reset) never touch the steady-state hit path.
func (c *PredictionCache) store(key, verify uint64, pred TimePrediction) {
	c.mu.Lock()
	if len(c.m) >= c.capacity {
		n := int64(len(c.m))
		c.m = make(map[uint64]timeEntry, c.capacity/4) //alloccheck:ok capacity reset is the bounded-memory cold path
		c.evictions.Add(n)
		metCacheEvictions.Add(n)
	}
	c.m[key] = timeEntry{verify: verify, pred: pred} //alloccheck:ok map insert runs only on the miss path
	c.mu.Unlock()
}

// coEntry is one cached joint prediction with its verifier digest.
type coEntry struct {
	verify uint64
	co     *CoPrediction
}

// CoCache memoizes joint (co-schedule) predictions under the canonical hash
// of (machine, every job's workload and placement in order, Options, epoch).
// The scheduler shares one across Submit, Predict, Rebalance and the drain
// migration search, so re-scoring an unchanged co-resident set is a map
// lookup instead of a fixed-point solve.
//
// A hit returns the *same* *CoPrediction an earlier solve produced; callers
// must treat it as immutable. (The scheduler already does: predictions are
// only read after assembly.) Joint predictions carry per-thread vectors and
// a load map, so the default capacity is much smaller than the fast-path
// cache's.
type CoCache struct {
	mu       sync.RWMutex
	m        map[uint64]coEntry
	capacity int

	epoch                   atomic.Uint64
	hits, misses, evictions atomic.Int64
}

// DefaultCoCacheSize bounds a CoCache built with capacity <= 0.
const DefaultCoCacheSize = 1 << 12

// NewCoCache builds an empty joint-prediction cache holding at most
// capacity entries (<= 0 selects DefaultCoCacheSize).
func NewCoCache(capacity int) *CoCache {
	if capacity <= 0 {
		capacity = DefaultCoCacheSize
	}
	return &CoCache{m: make(map[uint64]coEntry), capacity: capacity}
}

// Key derives the canonical key and verifier for a joint prediction of the
// placed workloads on md under opt. The jobs are hashed in slice order —
// floating-point accumulation in the joint solver is order-sensitive, so
// permutations of one mix are distinct solves and distinct keys.
func (c *CoCache) Key(md *machine.Description, placed []PlacedWorkload, opt Options) (uint64, uint64) {
	h := newCanonHash()
	h.word(c.epoch.Load())
	h.machine(md)
	h.options(opt)
	h.int(len(placed))
	for _, pw := range placed {
		if pw.Workload == nil {
			// Nil workloads never reach the solver (bind rejects them);
			// fold a marker so the key is still well-defined.
			h.byte(0xff)
			continue
		}
		h.workload(pw.Workload)
		h.placement(pw.Placement)
	}
	return h.key, h.verify
}

// Lookup serves a stored joint prediction when both digests match. The
// returned CoPrediction is shared and must not be mutated.
func (c *CoCache) Lookup(key, verify uint64) (*CoPrediction, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || e.verify != verify {
		c.misses.Add(1)
		metCacheMisses.Inc()
		return nil, false
	}
	c.hits.Add(1)
	metCacheHits.Inc()
	return e.co, true
}

// Store records a freshly computed joint prediction.
func (c *CoCache) Store(key, verify uint64, co *CoPrediction) {
	if co == nil {
		return
	}
	c.mu.Lock()
	if len(c.m) >= c.capacity {
		n := int64(len(c.m))
		c.m = make(map[uint64]coEntry, c.capacity/4)
		c.evictions.Add(n)
		metCacheEvictions.Add(n)
	}
	c.m[key] = coEntry{verify: verify, co: co}
	c.mu.Unlock()
}

// Invalidate bumps the epoch and drops the stored entries.
func (c *CoCache) Invalidate() {
	c.epoch.Add(1)
	c.mu.Lock()
	n := int64(len(c.m))
	c.m = make(map[uint64]coEntry)
	c.mu.Unlock()
	c.evictions.Add(n)
	metCacheEvictions.Add(n)
}

// Stats returns the cache's lifetime hit/miss/eviction counts.
func (c *CoCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
