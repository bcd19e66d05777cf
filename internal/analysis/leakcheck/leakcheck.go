// Package leakcheck is the goroutine-lifetime pass of pandia-vet. The
// scheduler, the evaluation harness and the fault injector all spawn worker
// goroutines; a goroutine that blocks on a channel forever after its
// consumer has given up is an unbounded resource leak that no test notices
// until the race detector times out.
//
// leakcheck inspects every `go func(){...}()` literal and asks whether the
// goroutine's exit is tied to something:
//
//   - a sync.WaitGroup Done (the spawner can Wait for it);
//   - a context Done channel (cancellation reaches it);
//   - ranging over a channel (a close releases it);
//   - a receive from a channel with a comma-ok or inside a select that also
//     has a Done/return case.
//
// Untied goroutines are reported when they can block indefinitely: a
// channel send or receive inside a loop, or an infinite `for {}` with no
// return/break. Goroutines spawned as `go name(...)` are not analysed (the
// callee's body may be in another package); the runtime leaktest helper
// (internal/analysis/leaktest) covers those dynamically.
//
// A finding can be suppressed with //leakcheck:ok.
package leakcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
)

// Analyzer is the leakcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "leakcheck",
	Doc: "flag goroutine literals whose exit is not tied to a WaitGroup, context Done, " +
		"or channel close, and that can block forever on channel operations or spin in for{}",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, suppressed: analysis.SuppressedBy(pass, "leakcheck:ok")}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			c.checkGoroutine(gs, lit)
			return true
		})
	}
	return nil
}

type checker struct {
	pass       *analysis.Pass
	suppressed func(token.Pos) bool
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.suppressed(pos) || c.pass.IsTestFile(pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) checkGoroutine(gs *ast.GoStmt, lit *ast.FuncLit) {
	if c.tied(lit.Body) {
		return
	}
	if pos, what, risky := c.blocking(lit.Body); risky {
		c.report(pos, "goroutine may leak: %s, and exit is not tied to a WaitGroup, context, or channel close", what)
	}
}

// tied reports whether the goroutine body contains an exit-tie signal.
func (c *checker) tied(body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested goroutine literals judged separately
		case *ast.CallExpr:
			if c.isWaitGroupDone(n) || c.isContextDone(n) {
				tied = true
				return false
			}
		case *ast.RangeStmt:
			// Ranging over a channel ends when the channel is closed.
			if t := c.typeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true
					return false
				}
			}
		}
		return true
	})
	return tied
}

// blocking finds an operation that can block the goroutine forever: a
// channel send/receive inside a loop, or an infinite for{} with no exit.
func (c *checker) blocking(body *ast.BlockStmt) (token.Pos, string, bool) {
	var pos token.Pos
	what := ""
	var inspect func(n ast.Node, inLoop bool)
	inspect = func(n ast.Node, inLoop bool) {
		if what != "" || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ForStmt:
			// Prefer the channel-operation finding: it names the blocking
			// site, which is more actionable than "the loop never ends".
			ast.Inspect(n.Body, func(x ast.Node) bool {
				if what != "" {
					return false
				}
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				if p, k, ok := chanOpIn(x); ok {
					pos, what = p, "channel "+k+" inside a loop"
					return false
				}
				return true
			})
			if what == "" && n.Cond == nil && !hasExit(n.Body) {
				pos, what = n.Pos(), "infinite for loop with no return or break"
			}
			return
		case *ast.RangeStmt:
			ast.Inspect(n.Body, func(x ast.Node) bool {
				if what != "" {
					return false
				}
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				if p, k, ok := chanOpIn(x); ok {
					pos, what = p, "channel "+k+" inside a loop"
					return false
				}
				return true
			})
			return
		case *ast.BlockStmt:
			for _, s := range n.List {
				inspect(s, inLoop)
			}
			return
		case *ast.IfStmt:
			inspect(n.Body, inLoop)
			if n.Else != nil {
				inspect(n.Else, inLoop)
			}
			return
		}
	}
	inspect(body, false)
	return pos, what, what != ""
}

// hasExit reports whether a loop body contains a return, break, or goto that
// can leave the loop (conservatively: any return/break/goto, or a select
// case that returns).
func hasExit(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
				return false
			}
		case *ast.CallExpr:
			// panic/runtime.Goexit terminate the goroutine too.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// chanOpIn matches a channel send or blocking receive at node x.
func chanOpIn(x ast.Node) (token.Pos, string, bool) {
	switch x := x.(type) {
	case *ast.SendStmt:
		return x.Arrow, "send", true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return x.OpPos, "receive", true
		}
	}
	return token.NoPos, "", false
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isWaitGroupDone matches wg.Done() / wg.Wait() on a *sync.WaitGroup.
func (c *checker) isWaitGroupDone(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Wait") {
		return false
	}
	t := c.typeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// isContextDone matches ctx.Done() on a context.Context.
func (c *checker) isContextDone(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := c.typeOf(sel.X)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "context") && named.Obj().Name() == "Context"
}
