// Package deadlockcheck detects potential deadlocks and mutex misuse,
// interprocedurally across the module-local call graph via the
// internal/analysis/locks engine:
//
//   - lock-order inversions: every acquisition of lock B while lock A is
//     held (in any function, through any call chain) contributes an edge
//     A → B to a global lock-acquisition-order graph; a cycle in that
//     graph means two goroutines can acquire the same locks in opposite
//     orders and deadlock. Each cycle is reported once, with a call-chain
//     witness per edge.
//   - double-locks: a helper that (re-)acquires a mutex some caller
//     already holds, or a second Lock (or an RLock→Lock upgrade) of a
//     mutex the same function already locked, which self-deadlocks
//     because sync mutexes are not re-entrant.
//   - in-frame misuse: Unlock of an RLock-ed mutex (and RUnlock of a
//     Lock-ed one), and a return while a mutex the function locked is
//     still held with no deferred unlock (a missing unlock on an
//     early-return path).
//   - blocking under a lock: a channel send/receive, WaitGroup/Cond Wait,
//     time.Sleep, net/http or os/exec call reached (directly or through
//     callees) while a lock is held, stalling every other goroutine that
//     needs the lock.
//
// Copies of lock-bearing values are go vet's copylocks check. A finding
// that is intended behavior (e.g. a deliberately-held lock around a bounded
// channel handoff) is suppressed with a trailing
//
//	//deadlockcheck:ok <reason>
//
// on the reported line (or the line above); the reason is mandatory.
// Findings in _test.go files are ignored.
package deadlockcheck

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"pandia/internal/analysis"
	"pandia/internal/analysis/locks"
)

// Analyzer is the deadlockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "deadlockcheck",
	Doc: "detect lock-order inversions, double-locks, wrong-flavour or missing unlocks, " +
		"and blocking calls under a lock",
	Run: run,
	// Every package outside the analysis tooling that imports sync.
	Restrict: analysis.RestrictTo("internal/scheduler", "internal/obs", "internal/eval",
		"internal/faults", "internal/scenario", "internal/core", "internal/placement",
		"internal/simhw"),
}

type checker struct {
	pass       *analysis.Pass
	suppressed func(token.Pos) bool // covered by //deadlockcheck:ok
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, suppressed: analysis.SuppressedBy(pass, "deadlockcheck:ok")}
	analysis.CheckReasons(pass, "deadlockcheck:ok", "why this locking is safe")

	res := locks.Analyze(pass)
	c.reportCycles(res)
	for _, f := range res.Doubles {
		c.report(f.Pos, f.Message)
	}
	for _, f := range res.Misuse {
		c.report(f.Pos, f.Message)
	}
	for _, f := range res.Blocking {
		c.report(f.Pos, f.Message)
	}
	return nil
}

// reportCycles finds the strongly connected components of the global
// lock-order graph and reports each cyclic one, anchored at its first
// in-package witness edge.
func (c *checker) reportCycles(res *locks.Result) {
	for _, group := range cyclicGroups(res.OrderEdges) {
		sort.Slice(group, func(i, j int) bool {
			if group[i].From.String() != group[j].From.String() {
				return group[i].From.String() < group[j].From.String()
			}
			return group[i].To.String() < group[j].To.String()
		})
		var anchor *locks.OrderEdge
		for i := range group {
			if group[i].InRoot {
				anchor = &group[i]
				break
			}
		}
		if anchor == nil {
			continue // fully outside this package; its own pass reports it
		}
		var names []string
		seen := map[string]bool{}
		for _, ed := range group {
			for _, id := range []string{ed.From.String(), ed.To.String()} {
				if !seen[id] {
					seen[id] = true
					names = append(names, id)
				}
			}
		}
		sort.Strings(names)
		clauses := make([]string, len(group))
		for i, ed := range group {
			clauses[i] = fmt.Sprintf("holding %s, %s is acquired via %s (%s)",
				ed.From, ed.To, ed.Chain, res.PosLabel(ed.AcqPos))
		}
		c.report(anchor.Pos, fmt.Sprintf("potential lock-order inversion among %s: %s",
			strings.Join(names, ", "), strings.Join(clauses, "; ")))
	}
}

// cyclicGroups returns, for every cyclic SCC of the lock-order graph, the
// edges inside it (Tarjan, deterministic in edge order).
func cyclicGroups(edges []locks.OrderEdge) [][]locks.OrderEdge {
	var nodes []locks.LockID
	index := map[locks.LockID]int{}
	nodeOf := func(id locks.LockID) int {
		if i, ok := index[id]; ok {
			return i
		}
		index[id] = len(nodes)
		nodes = append(nodes, id)
		return len(nodes) - 1
	}
	adj := map[int][]int{}
	for _, ed := range edges {
		f, t := nodeOf(ed.From), nodeOf(ed.To)
		adj[f] = append(adj[f], t)
	}

	// Iterative Tarjan.
	const unvisited = -1
	idx := make([]int, len(nodes))
	low := make([]int, len(nodes))
	onStack := make([]bool, len(nodes))
	for i := range idx {
		idx[i] = unvisited
	}
	var stack []int
	next := 0
	comp := make([]int, len(nodes))
	for i := range comp {
		comp[i] = unvisited
	}
	ncomp := 0

	type frame struct{ v, ei int }
	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{root, 0}}
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.ei == 0 {
				idx[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.ei < len(adj[v]) {
				w := adj[v][fr.ei]
				fr.ei++
				if idx[w] == unvisited {
					frames = append(frames, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && idx[w] < low[v] {
					low[v] = idx[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == idx[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	for i := range nodes {
		if idx[i] == unvisited {
			dfs(i)
		}
	}

	size := map[int]int{}
	for _, cp := range comp {
		size[cp]++
	}
	groups := map[int][]locks.OrderEdge{}
	var order []int
	for _, ed := range edges {
		f, t := index[ed.From], index[ed.To]
		if comp[f] != comp[t] || size[comp[f]] < 2 {
			continue
		}
		if _, ok := groups[comp[f]]; !ok {
			order = append(order, comp[f])
		}
		groups[comp[f]] = append(groups[comp[f]], ed)
	}
	out := make([][]locks.OrderEdge, 0, len(order))
	for _, cp := range order {
		out = append(out, groups[cp])
	}
	return out
}

// report emits one finding unless it lies in a test file or its line
// carries a //deadlockcheck:ok suppression.
func (c *checker) report(pos token.Pos, msg string) {
	if c.pass.IsTestFile(pos) || c.suppressed(pos) {
		return
	}
	c.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}
