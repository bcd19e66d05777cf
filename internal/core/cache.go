package core

import (
	"math"
	"sync"
	"sync/atomic"

	"pandia/internal/machine"
	"pandia/internal/placement"
)

// This file is the canonical joint-prediction cache (DESIGN.md §12): a
// content hash over (machine description, every job's workload and
// placement, Options) mapping to previously computed joint results. A served
// entry holds the exact values an earlier solve produced, so cache hits are
// bit-identical to cold solves by construction — the property the
// scenario-corpus byte-identity gate pins.
//
// The content is digested once, not per lookup: DigestMachine covers the
// machine and the options, DigestWorkload one workload, and Key folds those
// digests with the placements. A digest describes the values it was taken
// from, so its owner must keep those values fixed — the scheduler digests
// private snapshots it never writes. Mutated content re-digests to a
// different key, so a stale entry is never looked up again; the capacity
// reset bounds the memory such entries hold.

// Bases and odd multipliers of the key stream and an independent verifier
// stream: a lookup must match both 64-bit digests, so a collision on the
// map key alone cannot serve a wrong prediction.
const (
	keyOffset64    = 14695981039346656037
	keyPrime64     = 0xff51afd7ed558ccd
	verifyOffset64 = 0x6c62272e07bb0142
	verifyPrime64  = 0x9e3779b97f4a7c15
)

// canonHash accumulates the canonical key and its verifier in one pass.
// All methods are allocation-free so key derivation can run on the
// //pandia:noalloc fast path.
type canonHash struct{ key, verify uint64 }

func newCanonHash() canonHash { return canonHash{key: keyOffset64, verify: verifyOffset64} }

// Digest is precomputed key content: the key-stream and verifier-stream
// digests of a machine and options (DigestMachine) or of one workload
// (DigestWorkload), which Key folds instead of rehashing the content.
type Digest struct{ key, verify uint64 }

// DigestMachine digests the machine description and the options, the
// prefix every key of one predictor shares.
func DigestMachine(md *machine.Description, opt Options) Digest {
	h := newCanonHash()
	h.machine(md)
	h.options(opt)
	return Digest(h)
}

// DigestWorkload digests every workload field the model reads; a nil
// workload digests to a fixed marker.
func DigestWorkload(w *Workload) Digest {
	h := newCanonHash()
	if w == nil {
		// Nil workloads never reach the solver (bind rejects them); the
		// marker keeps the key well-defined.
		h.word(math.MaxUint64)
	} else {
		h.workload(w)
	}
	return Digest(h)
}

// word absorbs one word into each stream.
func (h *canonHash) word(v uint64) { h.digest(Digest{v, v}) }

// digest absorbs one word per stream, d.key into the key stream and
// d.verify into the verifier, with one xor-multiply-xorshift round each;
// both steps are bijections, so inputs differing in one word differ. A
// precomputed Digest folds in this way, so each stream sees only its own
// half and the verifier stays independent of the key hash.
func (h *canonHash) digest(d Digest) {
	h.key = (h.key ^ d.key) * keyPrime64
	h.key ^= h.key >> 32
	h.verify = (h.verify ^ d.verify) * verifyPrime64
	h.verify ^= h.verify >> 29
}

func (h *canonHash) f64(v float64) { h.word(math.Float64bits(v)) }
func (h *canonHash) int(v int)     { h.word(uint64(int64(v))) }

func (h *canonHash) bool(v bool) {
	if v {
		h.word(1)
	} else {
		h.word(0)
	}
}

func (h *canonHash) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
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
// Tracer and SpanID are deliberately excluded: neither affects the computed
// numbers, only how the trace events are recorded and labelled — folding
// SpanID in would fragment the cache per scheduler decision and destroy the
// hit rate.
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

// ctxBits is the width of one context component in a packed context word.
const ctxBits = 21

// placement folds in the thread count and each context as one packed word,
// socket<<42 | core<<21 | slot. A context with a component outside
// [0, 2^21) folds a marker and then its three components; a packed word is
// below 2^63 and the marker is not, so the word sequence stays decodable
// and distinct placements stay distinct inputs.
func (h *canonHash) placement(p placement.Placement) {
	h.int(len(p))
	for _, c := range p {
		if uint(c.Socket)|uint(c.Core)|uint(c.Slot) < 1<<ctxBits {
			h.word(uint64(c.Socket)<<(2*ctxBits) | uint64(c.Core)<<ctxBits | uint64(c.Slot))
			continue
		}
		h.word(math.MaxUint64)
		h.int(c.Socket)
		h.int(c.Core)
		h.int(c.Slot)
	}
}

// CacheStats is a cache's lifetime traffic. Hits plus Misses is the lookup
// count; Evictions counts entries dropped by capacity resets.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// coEntry is one cached joint result with its verifier digest: a full
// prediction (co non-nil) or a compact copy of its score.
type coEntry struct {
	verify uint64
	co     *CoPrediction
	score  CoScore
}

// CoCache memoizes joint (co-schedule) results under the canonical hash of
// (machine, every job's workload and placement in order, Options).
// The scheduler shares one across Submit, Predict, Rebalance and the drain
// migration search, so re-scoring an unchanged co-resident set is a map
// lookup instead of a fixed-point solve.
//
// An entry holds a full prediction or a compact score; LookupScore serves
// either and counts each lookup once. A served *CoPrediction is the same
// pointer an earlier solve produced; callers must treat it as immutable.
type CoCache struct {
	mu       sync.RWMutex
	m        map[uint64]coEntry
	capacity int

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
// placed workloads, from base = DigestMachine of the machine and options and
// digests[i] = DigestWorkload of placed[i].Workload. It costs one word per
// job and per context, whatever the content. The jobs are folded in slice
// order — floating-point accumulation in the joint solver is
// order-sensitive, so permutations of one mix are distinct solves and
// distinct keys.
//
//pandia:noalloc
func (c *CoCache) Key(base Digest, placed []PlacedWorkload, digests []Digest) (uint64, uint64) {
	h := canonHash(base)
	h.int(len(placed))
	for i, pw := range placed {
		h.digest(digests[i])
		h.placement(pw.Placement)
	}
	return h.key, h.verify
}

// get finds the entry under both digests and counts the lookup.
func (c *CoCache) get(key, verify uint64) (coEntry, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || e.verify != verify {
		c.misses.Add(1)
		metCacheMisses.Inc()
		return coEntry{}, false
	}
	c.hits.Add(1)
	metCacheHits.Inc()
	return e, true
}

// LookupScore serves a stored entry's score, with its speedups written into
// dst, when both digests match; co is the entry's full prediction, nil for a
// compact entry (a caller that needs it solves the mix and Stores the
// result, which replaces the compact entry).
func (c *CoCache) LookupScore(key, verify uint64, dst []float64) (sc CoScore, co *CoPrediction, ok bool) {
	e, ok := c.get(key, verify)
	if e.co != nil {
		return e.co.Score(dst), e.co, true
	}
	sc = e.score // zero on a miss
	sc.Speedups = append(dst[:0], sc.Speedups...)
	return sc, nil, ok
}

// Store records a freshly computed full joint prediction, replacing any
// compact entry under the same key.
func (c *CoCache) Store(key, verify uint64, co *CoPrediction) {
	if co == nil {
		return
	}
	c.insert(key, coEntry{verify: verify, co: co})
}

// StoreScore records a copy of a freshly computed score as a compact entry.
func (c *CoCache) StoreScore(key, verify uint64, sc CoScore) {
	sc.Speedups = append([]float64(nil), sc.Speedups...)
	c.insert(key, coEntry{verify: verify, score: sc})
}

// insert adds or replaces one entry. A new key that finds the table full
// first drops the whole table; replacing an entry in place never does, so
// storing a mix's full prediction over its compact score changes neither the
// table's size nor the eviction count.
func (c *CoCache) insert(key uint64, e coEntry) {
	c.mu.Lock()
	if _, ok := c.m[key]; !ok && len(c.m) >= c.capacity {
		n := int64(len(c.m))
		c.m = make(map[uint64]coEntry, c.capacity/4)
		c.evictions.Add(n)
		metCacheEvictions.Add(n)
	}
	c.m[key] = e
	c.mu.Unlock()
}

// Stats returns the cache's lifetime hit/miss/eviction counts.
func (c *CoCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
