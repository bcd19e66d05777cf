package placement

import (
	"math/rand"
	"sort"
	"sync"

	"pandia/internal/topology"
)

// enumCache memoises Enumerate per machine shape. Machine is a small
// comparable struct, so it keys the map directly. The cached slice is
// canonical and never handed out: Enumerate returns a deep copy, because
// callers sort, append, sample, and may edit the result in place.
var enumCache sync.Map // topology.Machine -> []Shape

// Enumerate generates every canonical shape on the machine: all multisets of
// per-socket occupancies, at least one thread total. The result is sorted by
// total thread count, then core count, then shape key, matching the
// paper's plotting order (§6.1: "sorted first by the total number of
// threads, then by the number of threads on core 0, ...").
//
// The canonical space is ~18k shapes for the X5-2 and ~1k for the X3-2/X4-2.
// For machines whose space is enormous (the 4-socket X2-4 has ~860k), use
// EnumerateSampled.
//
// Results are memoised per machine: repeated calls copy a cached slice
// instead of re-running the recursion. The copy shares no memory with the
// cache, so a caller's edits never leak into later calls.
func Enumerate(m topology.Machine) []Shape {
	v, ok := enumCache.Load(m)
	if !ok {
		v, _ = enumCache.LoadOrStore(m, CloneShapes(enumerate(m)))
	}
	return CloneShapes(v.([]Shape))
}

// enumerate is the uncached enumeration.
func enumerate(m topology.Machine) []Shape {
	states := socketStates(m)
	var shapes []Shape
	// Multisets: choose a non-increasing sequence of state indices, one per
	// socket (index 0 is the empty socket; allow trailing empties
	// implicitly by stopping at any point).
	// The recursion emits non-increasing state sequences, and the state
	// ordering mirrors SocketCount.less, so each emitted prefix of
	// non-empty sockets is already in canonical form; only trailing empty
	// sockets need trimming.
	var rec func(socket, maxState, nonEmpty int, acc []SocketCount)
	rec = func(socket, maxState, nonEmpty int, acc []SocketCount) {
		if socket == m.Sockets {
			if nonEmpty > 0 {
				shapes = append(shapes, Shape{PerSocket: append([]SocketCount(nil), acc[:nonEmpty]...)})
			}
			return
		}
		for i := maxState; i >= 0; i-- {
			ne := nonEmpty
			if states[i].Threads() > 0 {
				ne++
			}
			rec(socket+1, i, ne, append(acc, states[i]))
		}
	}
	rec(0, len(states)-1, 0, make([]SocketCount, 0, m.Sockets))
	SortShapes(shapes)
	return shapes
}

// socketStates lists every possible occupancy of a single socket, including
// the empty one at index 0.
func socketStates(m topology.Machine) []SocketCount {
	var states []SocketCount
	maxTwos := 0
	if m.ThreadsPerCore >= 2 {
		maxTwos = m.CoresPerSocket
	}
	for ones := 0; ones <= m.CoresPerSocket; ones++ {
		for twos := 0; twos <= maxTwos && ones+twos <= m.CoresPerSocket; twos++ {
			states = append(states, SocketCount{Ones: ones, Twos: twos})
		}
	}
	// Put the empty state first so the recursion can address it directly.
	sort.Slice(states, func(i, j int) bool {
		if states[i].Threads() != states[j].Threads() {
			return states[i].Threads() < states[j].Threads()
		}
		return states[i].Twos < states[j].Twos
	})
	return states
}

// SortShapes sorts shapes into the canonical plotting order.
func SortShapes(shapes []Shape) {
	type decorated struct {
		threads, cores int
		key            string
	}
	dec := make([]decorated, len(shapes))
	for i, s := range shapes {
		dec[i] = decorated{s.Threads(), s.Cores(), s.Key()}
	}
	idx := make([]int, len(shapes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if dec[i].threads != dec[j].threads {
			return dec[i].threads < dec[j].threads
		}
		if dec[i].cores != dec[j].cores {
			return dec[i].cores < dec[j].cores
		}
		return dec[i].key < dec[j].key
	})
	out := make([]Shape, len(shapes))
	for pos, i := range idx {
		out[pos] = shapes[i]
	}
	copy(shapes, out)
}

// Sample draws a deterministic subset of at most max shapes, stratified by
// thread count so every thread count present in the input remains
// represented (the paper covered ~20% of the X5-2's placements, §6.1).
// The input order is preserved in the output.
func Sample(shapes []Shape, max int, seed int64) []Shape {
	if max <= 0 || len(shapes) <= max {
		return shapes
	}
	byThreads := make(map[int][]int) // thread count -> indices
	var counts []int
	for i, s := range shapes {
		n := s.Threads()
		if _, ok := byThreads[n]; !ok {
			counts = append(counts, n)
		}
		byThreads[n] = append(byThreads[n], i)
	}
	sort.Ints(counts)
	rng := rand.New(rand.NewSource(seed))
	frac := float64(max) / float64(len(shapes))
	chosen := make([]int, 0, max+len(counts))
	for _, n := range counts {
		idx := byThreads[n]
		want := int(frac * float64(len(idx)))
		if want < 1 {
			want = 1
		}
		if want >= len(idx) {
			chosen = append(chosen, idx...)
			continue
		}
		perm := rng.Perm(len(idx))[:want]
		sort.Ints(perm)
		for _, p := range perm {
			chosen = append(chosen, idx[p])
		}
	}
	sort.Ints(chosen)
	out := make([]Shape, len(chosen))
	for i, c := range chosen {
		out[i] = shapes[c]
	}
	return out
}

// FilterMaxSockets keeps shapes touching at most k sockets (the "2 Socket"
// class of the four-socket experiment, §6.2).
func FilterMaxSockets(shapes []Shape, k int) []Shape {
	var out []Shape
	for _, s := range shapes {
		if s.SocketsUsed() <= k {
			out = append(out, s)
		}
	}
	return out
}

// FilterMaxCores keeps shapes occupying at most k cores in total (the
// "20 Core" class of §6.2).
func FilterMaxCores(shapes []Shape, k int) []Shape {
	var out []Shape
	for _, s := range shapes {
		if s.Cores() <= k {
			out = append(out, s)
		}
	}
	return out
}

// EnumerateSampled enumerates the canonical space lazily and keeps a
// deterministic reservoir-style sample of at most max shapes per thread
// count tier, bounding memory on machines with huge spaces. It returns the
// shapes in canonical order.
func EnumerateSampled(m topology.Machine, max int, seed int64) []Shape {
	all := Enumerate(m)
	return Sample(all, max, seed)
}
