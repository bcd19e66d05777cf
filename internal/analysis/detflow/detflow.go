// Package detflow enforces determinism in the prediction core.
//
// The fixed-point loop (§5) must produce bit-identical results run-to-run:
// golden tests, the ablation tables, and cross-machine portability studies
// all diff floating-point outputs exactly. Three Go constructs silently
// break that: map range iteration (random order — and float accumulation is
// not associative, so even "order-independent" sums drift), time.Now, and
// the process-seeded global math/rand source. Seeded generators built with
// rand.New(rand.NewSource(seed)) are fine, as is the key-collection prelude
// `for k := range m { keys = append(keys, k) }`.
//
// detflow forbids the three constructs inside the prediction packages
// (internal/core, internal/simhw, internal/eval, internal/faults,
// internal/obs) — in particular, observability timestamps must come from an
// injected obs.Clock, never a bare time.Now, so recorded traces stay
// reproducible. A source in the package under analysis is reported at its
// own position. A core function can also call a helper in an unrestricted
// package (kernels, placement, a utility package) that hides the same
// construct one level down, so detflow builds the module-local call graph
// (internal/analysis/callgraph), collects the sources in the unrestricted
// functions of the import closure, and taints them through the graph.
// Every source reachable from a function of the package under analysis is
// reported at the call site where the flow leaves the package, with the
// full call chain and the true source location in the message:
//
//	nondeterminism reaches the core: time.Now (at kernels/cpu.go:42);
//	call path: kernels.stamp ← core.refresh; inject the clock
//
// Callees in other restricted packages are not traversed (they are vetted
// when their own package is analysed). Test files are exempt. A deliberate,
// order-independent use carries //detflow:ignore with a justification on
// the source line or the calling line.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
	"pandia/internal/analysis/callgraph"
)

// Analyzer is the detflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "forbid time.Now, global math/rand and map iteration in the prediction core, " +
		"directly or through the module-local call graph",
	Run:      run,
	Restrict: restricted,
}

// restricted is the prediction-core package set; a separate variable breaks
// the initialization cycle Analyzer → run → Analyzer.Restrict.
var restricted = analysis.RestrictTo("internal/core", "internal/simhw", "internal/eval",
	"internal/faults", "internal/obs")

// seededConstructors are the math/rand functions that build explicitly
// seeded generators and are therefore allowed.
var seededConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// source is one nondeterminism origin.
type source struct {
	pos    token.Pos
	what   string // in a flow: "time.Now", "global math/rand call rand.Intn", …
	direct string // at the source itself: "time.Now breaks run-to-run determinism", …
	advice string // the fix
}

type checker struct {
	pass     *analysis.Pass
	g        *callgraph.Graph
	sources  map[*callgraph.Node][]source
	tainted  map[*callgraph.Node]bool
	reported map[string]bool
	// ignored reports whether an in-package position's line is covered by
	// a //detflow:ignore directive.
	ignored func(token.Pos) bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		g:        callgraph.Build(pass),
		sources:  map[*callgraph.Node][]source{},
		reported: map[string]bool{},
		ignored:  analysis.SuppressedBy(pass, "detflow:ignore"),
	}
	c.reportDirect()
	for _, n := range c.g.Nodes {
		if c.collectable(n) {
			c.sources[n] = c.collect(n)
		}
	}
	c.tainted = callgraph.Solve(c.g, false, func(n *callgraph.Node, get func(*callgraph.Node) bool) bool {
		if len(c.sources[n]) > 0 {
			return true
		}
		for _, e := range n.Edges {
			for _, callee := range e.Callees {
				if c.traversable(callee) && get(callee) {
					return true
				}
			}
		}
		return false
	})
	for _, n := range c.g.Nodes {
		if n.Decl != nil && n.Pkg.Types == pass.Pkg && !pass.IsTestFile(n.Pos()) {
			c.reportEntry(n)
		}
	}
	return nil
}

// collectable limits flow-source collection to unrestricted, non-test
// functions outside the package under analysis: sources in the package
// itself are reported directly, and other restricted packages report their
// own.
func (c *checker) collectable(n *callgraph.Node) bool {
	if n.Pkg.Types == c.pass.Pkg || c.pass.IsTestFile(n.Pos()) {
		return false
	}
	return !restricted(n.Pkg.Path)
}

// traversable reports whether the taint walk may enter callee: unrestricted
// dependency functions, plus function literals of the package under
// analysis (their enclosing declaration is the entry that owns them).
func (c *checker) traversable(callee *callgraph.Node) bool {
	if callee.Pkg.Types == c.pass.Pkg {
		return callee.Lit != nil
	}
	return !restricted(callee.Pkg.Path)
}

// collect scans one unrestricted function for nondeterminism sources: calls
// to time.Now, calls to unseeded package-level math/rand functions, and map
// range iteration (minus the key-collection idiom).
func (c *checker) collect(n *callgraph.Node) []source {
	var out []source
	for _, e := range n.Edges {
		if e.External == nil {
			continue
		}
		if s, ok := nondetCall(e.External); ok {
			s.pos = e.Pos
			out = append(out, s)
		}
	}
	body := n.Body()
	if body == nil {
		return out
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // a literal is its own node
		}
		if rs, ok := x.(*ast.RangeStmt); ok {
			if s, ok := mapRange(n.Pkg.Info, rs); ok {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// reportDirect reports every source in the non-test files of the package
// under analysis at its own position.
func (c *checker) reportDirect() {
	for _, f := range c.pass.Files {
		if c.pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(x ast.Node) bool {
			var s source
			var ok bool
			switch x := x.(type) {
			case *ast.RangeStmt:
				s, ok = mapRange(c.pass.TypesInfo, x)
			case *ast.CallExpr:
				if fn := calleeFunc(c.pass.TypesInfo, x.Fun); fn != nil {
					s, ok = nondetCall(fn)
					s.pos = x.Pos()
				}
			}
			if ok && !c.ignored(s.pos) {
				c.pass.Reportf(s.pos, "%s; %s", s.direct, s.advice)
			}
			return true
		})
	}
}

// calleeFunc resolves a called package-level function or method, or nil.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// mapRange classifies a range statement as a source: iteration over a map,
// minus the key-collection idiom.
func mapRange(info *types.Info, rs *ast.RangeStmt) (source, bool) {
	t := info.Types[rs.X].Type
	if t == nil {
		return source{}, false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap || isKeyCollection(rs) {
		return source{}, false
	}
	what := "nondeterministic iteration over map " + types.ExprString(rs.X)
	return source{pos: rs.Pos(), what: what, direct: what, advice: "iterate sorted keys instead"}, true
}

// isKeyCollection recognises the canonical deterministic-iteration prelude —
// `for k := range m { keys = append(keys, k) }` — which is order-independent
// by construction (the keys are sorted before use). The loop must bind only
// the key and its body must be a single append of that key.
func isKeyCollection(rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// nondetCall classifies an external callee as a nondeterminism source.
func nondetCall(fn *types.Func) (source, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return source{}, false
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Now" {
			return source{what: "time.Now", direct: "time.Now breaks run-to-run determinism",
				advice: "inject the clock"}, true
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && !seededConstructors[fn.Name()] {
			return source{
				what:   "global math/rand call " + pkg.Name() + "." + fn.Name(),
				direct: "global math/rand source is process-seeded",
				advice: "use rand.New(rand.NewSource(seed))",
			}, true
		}
	}
	return source{}, false
}

// reportEntry walks the unrestricted closure reachable from one entry and
// reports every nondeterminism source with the call chain back to the
// entry, anchored at the call site where the flow leaves the package.
func (c *checker) reportEntry(entry *callgraph.Node) {
	seen := map[*callgraph.Node]bool{}
	chain := []*callgraph.Node{}

	var visit func(n *callgraph.Node, anchor token.Pos)
	visit = func(n *callgraph.Node, anchor token.Pos) {
		if seen[n] {
			return
		}
		seen[n] = true
		chain = append(chain, n)
		for _, s := range c.sources[n] {
			c.report(entry, anchor, chain, s)
		}
		for _, e := range n.Edges {
			inPass := n.Pkg.Types == c.pass.Pkg
			if inPass && c.ignored(e.Pos) {
				continue
			}
			next := anchor
			if inPass {
				next = e.Pos
			}
			for _, callee := range e.Callees {
				if c.traversable(callee) && c.tainted[callee] {
					visit(callee, next)
				}
			}
		}
		chain = chain[:len(chain)-1]
	}
	visit(entry, entry.Decl.Pos())
}

// report emits one finding at the in-package anchor.
func (c *checker) report(entry *callgraph.Node, anchor token.Pos, chain []*callgraph.Node, s source) {
	p := c.pass.Fset.Position(s.pos)
	parts := make([]string, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		parts = append(parts, chain[i].Name())
	}
	msg := "nondeterminism reaches the core: " + s.what +
		" (at " + shortFile(p.Filename) + ":" + itoa(p.Line) + ")" +
		"; call path: " + strings.Join(parts, " ← ") + "; " + s.advice
	key := entry.Name() + "\x00" + p.String() + "\x00" + s.what
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(anchor, "%s", msg)
}

// shortFile trims a filename to its final two path elements.
func shortFile(name string) string {
	name = strings.ReplaceAll(name, "\\", "/")
	parts := strings.Split(name, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
