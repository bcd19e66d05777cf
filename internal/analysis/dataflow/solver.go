package dataflow

// Fact is an opaque dataflow fact. Facts must be treated as immutable by
// Transfer and Join: return fresh values instead of mutating inputs, so the
// solver can cache per-block states safely.
type Fact any

// Lattice parameterises the solver with a join-semilattice of facts and a
// per-block transfer function.
type Lattice interface {
	// Bottom is the fact for a block not yet reached along any path. Join
	// must treat it as the identity element.
	Bottom() Fact
	// Boundary is the fact at the function entry.
	Boundary() Fact
	// Join combines the facts flowing in from two predecessors.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are equal (convergence test).
	Equal(a, b Fact) bool
	// Transfer applies the effect of the block's nodes to the incoming fact
	// and returns the outgoing fact. Transfer must map Bottom to Bottom:
	// blocks only reachable through dead code (e.g. the continuation after a
	// return) would otherwise launder an unreached fact into a real one and
	// poison joins at the exit.
	Transfer(b *Block, in Fact) Fact
}

// Result holds the converged facts of one analysis.
type Result struct {
	// In[b] is the fact at block entry: the join over b's predecessors,
	// before b's transfer.
	In map[*Block]Fact
	// Out[b] is Transfer(b, In[b]).
	Out map[*Block]Fact
}

// Solve runs the forward worklist algorithm, from entry to exit, to a fixed
// point and returns the per-block facts. Iteration order is reverse
// postorder, which converges in a handful of passes for reducible graphs;
// an iteration budget proportional to the graph size guarantees termination
// even for a non-monotone lattice.
func Solve(g *Graph, l Lattice) *Result {
	order := postorder(g)
	reverse(order)
	pos := make(map[*Block]int, len(order))
	for i, b := range order {
		pos[b] = i
	}

	res := &Result{In: make(map[*Block]Fact), Out: make(map[*Block]Fact)}
	for _, b := range g.Blocks {
		res.In[b] = l.Bottom()
		res.Out[b] = l.Bottom()
	}

	inWork := make(map[*Block]bool, len(order))
	var work []*Block
	for _, b := range order {
		work = append(work, b)
		inWork[b] = true
	}
	// Budget: every block may be revisited once per lattice-height step;
	// 4*(|B|+1)^2 is far beyond what the lock lattice needs and still tiny
	// for real functions.
	budget := 4 * (len(g.Blocks) + 1) * (len(g.Blocks) + 1)

	for len(work) > 0 && budget > 0 {
		budget--
		// Pop the earliest block in iteration order for fast convergence.
		best := 0
		for i := 1; i < len(work); i++ {
			if pos[work[i]] < pos[work[best]] {
				best = i
			}
		}
		b := work[best]
		work = append(work[:best], work[best+1:]...)
		inWork[b] = false

		in := l.Bottom()
		if b == g.Entry {
			in = l.Boundary()
		}
		for _, p := range b.Preds {
			in = l.Join(in, res.Out[p])
		}
		res.In[b] = in
		out := l.Transfer(b, in)
		if l.Equal(out, res.Out[b]) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			if !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return res
}

// postorder returns the blocks reachable from Entry in DFS postorder,
// followed by any unreachable blocks (dead code still gets Bottom facts).
func postorder(g *Graph) []*Block {
	seen := make(map[*Block]bool, len(g.Blocks))
	var out []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		out = append(out, b)
	}
	dfs(g.Entry)
	for _, b := range g.Blocks {
		if !seen[b] {
			out = append(out, b)
		}
	}
	return out
}

func reverse(bs []*Block) {
	for i, j := 0, len(bs)-1; i < j; i, j = i+1, j-1 {
		bs[i], bs[j] = bs[j], bs[i]
	}
}
