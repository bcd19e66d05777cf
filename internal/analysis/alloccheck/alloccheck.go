// Package alloccheck statically proves the zero-allocation hot path.
//
// PR 4 pinned Predictor.PredictTime at 0 allocs/op, but until now the only
// guard was the runtime bench-gate: a regression introduced deep in a
// callee — an accidental interface boxing, a stray fmt call, an append that
// can grow — stays invisible until `make bench` runs. alloccheck turns the
// property into a vet-time proof: it builds the module-local call graph
// (internal/analysis/callgraph), computes a per-function allocation summary
// bottom-up over the SCC condensation, and reports every allocation source
// reachable from a function annotated
//
//	//pandia:noalloc
//
// with the full call chain from the allocation back to the annotated entry
// point. The summary lattice is
//
//	alloc-free  <  unknown (dynamic call)  <  allocates
//
// where "unknown" covers calls whose target cannot be named module-locally
// (func values, interfaces without a module implementation) and external
// calls absent from the built-in classification table.
//
// Recognised allocation sources — every way Go allocates:
//
//   - make and new, slice/map composite literals, &T{} literals;
//   - append (the backing array may grow);
//   - map inserts (m[k] = v, m[k]++);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface boxing, detected through go/types at assignments, call
//     arguments, returns, composite-literal elements, channel sends and
//     explicit conversions;
//   - variadic ...interface{} calls (the argument slice plus the boxes);
//   - func literals that capture variables by reference, and bound method
//     values (both carry a closure);
//   - go statements and defers inside loops;
//   - calls into fmt, strings.Builder, errors.New and other external
//     allocators from the classification table.
//
// A deliberate allocation on a cold sub-path (an error return, an opt-in
// debug branch) is suppressed with a trailing
//
//	//alloccheck:ok <reason>
//
// on the allocating line or on the call line that enters the cold path; the
// reason is mandatory. Functions in _test.go files are ignored.
package alloccheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
	"pandia/internal/analysis/callgraph"
)

// Analyzer is the alloccheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "alloccheck",
	Doc: "prove //pandia:noalloc functions allocation-free over the module-local call graph, " +
		"reporting every reachable allocation with its call chain",
	Run: run,
}

// state is the per-function allocation summary lattice.
type state uint8

const (
	allocFree state = iota
	// unknownState marks a function whose allocation behaviour cannot be
	// proven: it performs a dynamic call with no module-local resolution or
	// an unclassified external call.
	unknownState
	// allocatesState marks a function with a definite allocation site (or a
	// callee that has one).
	allocatesState
)

func join(a, b state) state {
	if b > a {
		return b
	}
	return a
}

// site is one local allocation site inside a function body.
type site struct {
	pos  token.Pos
	desc string
}

// funcInfo is a node's local contribution: allocation sites and the edges
// that survive suppression.
type funcInfo struct {
	sites []site
	edges []*callgraph.Edge
}

type checker struct {
	pass *analysis.Pass
	g    *callgraph.Graph
	info map[*callgraph.Node]*funcInfo
	sums map[*callgraph.Node]state
	// directives lazily caches per-file directive line maps across the
	// whole closure, keyed by filename.
	directives map[string]*fileDirectives
	files      map[string]*fileRef
	reported   map[string]bool
}

// fileDirectives records which source lines of one file carry alloccheck
// directives. Like analysis.LineComments, each directive comment marks its
// own line and the following one, covering both the trailing and the
// line-above placement.
type fileDirectives struct {
	noalloc map[int]bool
	ok      map[int]bool
}

// isDirective reports whether the comment is the machine-readable form of
// the named directive: the name directly follows the comment opener, as in
// //pandia:noalloc or /*alloccheck:ok reason*/. Prose that merely quotes a
// directive starts with other text and does not count.
func isDirective(text, name string) bool {
	return strings.HasPrefix(text, "//"+name) || strings.HasPrefix(text, "/*"+name)
}

// fileRef pairs a parsed file with its package for lazy comment lookup.
type fileRef struct {
	pkg  *analysis.Package
	file *ast.File
}

func run(pass *analysis.Pass) error {
	// Fast path: a package that declares no //pandia:noalloc entry point
	// needs no graph. (Suppression hygiene is still checked below for
	// packages that do.)
	if !hasNoallocAnnotation(pass.Files) {
		return nil
	}

	c := &checker{
		pass:       pass,
		g:          callgraph.Build(pass),
		info:       map[*callgraph.Node]*funcInfo{},
		directives: map[string]*fileDirectives{},
		files:      map[string]*fileRef{},
		reported:   map[string]bool{},
	}
	c.indexFiles()
	c.checkSuppressionReasons()

	for _, n := range c.g.Nodes {
		c.info[n] = c.collect(n)
	}
	c.sums = callgraph.Solve(c.g, allocFree, func(n *callgraph.Node, get func(*callgraph.Node) state) state {
		in := c.info[n]
		s := allocFree
		if len(in.sites) > 0 {
			s = allocatesState
		}
		for _, e := range in.edges {
			s = join(s, c.edgeState(e, get))
		}
		return s
	})

	for _, n := range c.g.Nodes {
		if n.Decl == nil || n.Pkg.Types != pass.Pkg || c.pass.IsTestFile(n.Pos()) {
			continue
		}
		if !c.isNoalloc(n) {
			continue
		}
		if c.sums[n] == allocFree {
			continue // proven clean
		}
		c.reportEntry(n)
	}
	return nil
}

// hasNoallocAnnotation scans raw comments for the entry-point marker.
func hasNoallocAnnotation(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if isDirective(cm.Text, "pandia:noalloc") {
					return true
				}
			}
		}
	}
	return false
}

// indexFiles records every file of the closure for comment lookup.
func (c *checker) indexFiles() {
	var add func(pkg *analysis.Package)
	seen := map[string]bool{}
	add = func(pkg *analysis.Package) {
		if pkg == nil || seen[pkg.Path] {
			return
		}
		seen[pkg.Path] = true
		for _, f := range pkg.Files {
			c.files[c.pass.Fset.Position(f.Pos()).Filename] = &fileRef{pkg: pkg, file: f}
		}
		for _, dep := range pkg.Imports { //detlint:ignore indexing by filename; order cannot matter
			add(dep)
		}
	}
	root := &analysis.Package{Path: c.pass.Pkg.Path(), Fset: c.pass.Fset, Files: c.pass.Files, Imports: c.pass.Deps}
	add(root)
}

// directivesFor returns (building on first use) the directive line map of
// one file in the closure.
func (c *checker) directivesFor(filename string) *fileDirectives {
	d, cached := c.directives[filename]
	if cached {
		return d
	}
	d = &fileDirectives{noalloc: map[int]bool{}, ok: map[int]bool{}}
	if ref := c.files[filename]; ref != nil {
		for _, cg := range ref.file.Comments {
			for _, cm := range cg.List {
				line := c.pass.Fset.Position(cm.Pos()).Line
				if isDirective(cm.Text, "pandia:noalloc") {
					d.noalloc[line] = true
					d.noalloc[line+1] = true
				}
				if isDirective(cm.Text, "alloccheck:ok") {
					d.ok[line] = true
					d.ok[line+1] = true
				}
			}
		}
	}
	c.directives[filename] = d
	return d
}

// suppressed reports whether pos's line carries an //alloccheck:ok
// directive.
func (c *checker) suppressed(pos token.Pos) bool {
	p := c.pass.Fset.Position(pos)
	return c.directivesFor(p.Filename).ok[p.Line]
}

// checkSuppressionReasons enforces the annotation grammar: every
// //alloccheck:ok in the package under analysis must carry a reason.
func (c *checker) checkSuppressionReasons() {
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if !isDirective(cm.Text, "alloccheck:ok") {
					continue
				}
				reason := strings.TrimSpace(strings.TrimSuffix(cm.Text[2+len("alloccheck:ok"):], "*/"))
				if reason == "" {
					c.pass.Reportf(cm.Pos(), "//alloccheck:ok needs a reason (//alloccheck:ok <why this allocation is acceptable>)")
				}
			}
		}
	}
}

// isNoalloc reports whether the declared function carries //pandia:noalloc,
// either in its doc comment or on the line directly above the declaration.
func (c *checker) isNoalloc(n *callgraph.Node) bool {
	if n.Decl.Doc != nil {
		for _, cm := range n.Decl.Doc.List {
			if isDirective(cm.Text, "pandia:noalloc") {
				return true
			}
		}
	}
	p := c.pass.Fset.Position(n.Decl.Pos())
	return c.directivesFor(p.Filename).noalloc[p.Line]
}

// edgeState classifies one (unsuppressed) edge for the summary solver.
func (c *checker) edgeState(e *callgraph.Edge, get func(*callgraph.Node) state) state {
	if e.External != nil {
		s, _ := externalState(e.External)
		return s
	}
	if e.Unresolved() {
		return unknownState
	}
	s := allocFree
	if e.Kind == callgraph.Ref && e.Bound {
		// Creating the bound method value allocates its receiver closure.
		s = allocatesState
	}
	for _, callee := range e.Callees {
		s = join(s, get(callee))
	}
	return s
}

// inPass reports whether the node's body lives in the package under
// analysis (reports anchor there; see reportAt).
func (c *checker) inPass(n *callgraph.Node) bool { return n.Pkg.Types == c.pass.Pkg }

// reportEntry walks everything reachable from one //pandia:noalloc entry
// and reports each allocation site, allocating external call, and
// unprovable dynamic call, with the call chain back to the entry.
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

		in := c.info[n]
		for _, s := range in.sites {
			c.reportAt(entry, n, s.pos, anchor, chain, s.desc)
		}
		for _, e := range in.edges {
			switch {
			case e.External != nil:
				st, desc := externalState(e.External)
				if st != allocFree {
					c.reportAt(entry, n, e.Pos, anchor, chain, desc)
				}
			case e.Unresolved():
				what := "func value " + e.Desc
				if e.Kind == callgraph.Interface {
					what = "interface method " + e.Desc + " (no module-local implementation)"
				}
				c.reportAt(entry, n, e.Pos, anchor, chain, "cannot prove alloc-free: dynamic call through "+what)
			default:
				if e.Kind == callgraph.Ref && e.Bound {
					c.reportAt(entry, n, e.Pos, anchor, chain, "bound method value "+e.Desc+" allocates")
				}
				next := anchor
				if c.inPass(n) {
					next = e.Pos
				}
				for _, callee := range e.Callees {
					if c.sums[callee] != allocFree {
						visit(callee, next)
					}
				}
			}
		}
		chain = chain[:len(chain)-1]
	}
	visit(entry, entry.Decl.Pos())
}

// reportAt emits one finding. Positions outside the package under analysis
// are re-anchored to the last in-package call site, with the true location
// folded into the message, so diagnostics always land on lines of the
// package being vetted.
func (c *checker) reportAt(entry, n *callgraph.Node, pos, anchor token.Pos, chain []*callgraph.Node, desc string) {
	at := pos
	loc := ""
	if !c.inPass(n) {
		at = anchor
		p := c.pass.Fset.Position(pos)
		loc = " (at " + shortFile(p.Filename) + ":" + itoa(p.Line) + ")"
	}
	parts := make([]string, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		parts = append(parts, chain[i].Name())
	}
	msg := desc + loc + "; //pandia:noalloc path: " + strings.Join(parts, " ← ")
	key := entry.Name() + "\x00" + c.pass.Fset.Position(pos).String() + "\x00" + desc
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(at, "%s", msg)
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

// externalState classifies a callee outside the loaded closure (standard
// library). The table is deliberately small: everything the hot path
// legitimately touches is listed as alloc-free, the notorious allocators
// are listed as allocating, and everything else is unknown — which a
// //pandia:noalloc proof treats as a failure, so growing the table is
// always a conscious decision.
func externalState(fn *types.Func) (state, string) {
	name := callgraph.FuncName(fn)
	pkg := fn.Pkg()
	if pkg == nil {
		// Universe-scope methods (error.Error) reached non-dynamically.
		return unknownState, "cannot prove alloc-free: external call to " + name
	}
	switch pkg.Path() {
	case "math", "sync/atomic":
		return allocFree, ""
	case "sync":
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock", "Add", "Done":
			return allocFree, ""
		}
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Seconds", "Nanoseconds", "Milliseconds", "Microseconds", "Sub", "Unix", "UnixNano":
			return allocFree, ""
		}
	case "fmt":
		return allocatesState, "call to " + name + " allocates"
	case "errors":
		if fn.Name() == "New" {
			return allocatesState, "call to errors.New allocates"
		}
	case "slices":
		// An in-place sort of the caller's slice; unlike sort.Float64s it
		// does not box the slice into a sort.Interface.
		if fn.Name() == "Sort" {
			return allocFree, ""
		}
	case "strings":
		if strings.Contains(name, "strings.Builder") {
			return allocatesState, "call to " + name + " allocates"
		}
	case "runtime":
		if fn.Name() == "Gosched" {
			return allocFree, ""
		}
	}
	return unknownState, "cannot prove alloc-free: external call to " + name
}
