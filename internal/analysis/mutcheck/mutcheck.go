// Package mutcheck flags writes to shared read-only model structures
// outside their constructor packages.
//
// Placement and topology values are built once and then shared by reference
// across prediction goroutines (the scheduler, the enumeration sweep, and
// the co-scheduling engine all hold the same backing arrays). A write from a
// consumer package is therefore a data race in waiting even when it looks
// like harmless local fix-up. This pass walks every assignment whose
// left-hand side reaches through a value of a protected named type —
// placement.Placement, placement.Shape, topology.Machine,
// machine.Description — and reports it unless the write happens in the
// package that defines the type (constructors and canonicalisers) or is
// annotated //mutcheck:ok (e.g. builder code that provably owns a fresh
// value).
package mutcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"pandia/internal/analysis"
)

// Analyzer is the mutcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "mutcheck",
	Doc: "flag writes to shared read-only placement/topology/machine values " +
		"outside their defining packages",
	Run: run,
}

// protected lists the read-only types as (package-path suffix, type name).
// A package whose import path equals the suffix or ends in "/"+suffix
// defines the type and may mutate it.
var protected = []struct {
	pkgSuffix, typeName string
}{
	{"placement", "Placement"},
	{"placement", "Shape"},
	{"topology", "Machine"},
	{"machine", "Description"},
}

func isProtected(obj *types.TypeName) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	for _, p := range protected {
		if obj.Name() == p.typeName &&
			(path == p.pkgSuffix || strings.HasSuffix(path, "/"+p.pkgSuffix)) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	// The defining package may mutate its own types.
	ownPath := pass.Pkg.Path()
	suppressed := analysis.SuppressedBy(pass, "mutcheck:ok")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{n.X}
			default:
				return true
			}
			if suppressed(n.Pos()) {
				return true
			}
			for _, e := range lhs {
				if tn := protectedBase(pass, e, ownPath); tn != nil {
					pass.Reportf(e.Pos(),
						"write to %s mutates shared read-only %s.%s outside its package; build a new value instead",
						types.ExprString(e), tn.Pkg().Name(), tn.Name())
					break
				}
			}
			return true
		})
	}
	return nil
}

// protectedBase walks the lvalue chain (selectors, indexing, derefs) and
// returns the first protected type the write reaches THROUGH, or nil.
// The leaf itself is exempt unless it is an explicit pointer dereference:
// `out = append(out, c)` and `rec.Best = shape` replace a value wholesale
// (construction), while `p[0] = ctx` or `*m = Machine{}` mutate storage that
// other holders of the placement/machine observe. Writes inside the type's
// own package are always allowed.
func protectedBase(pass *analysis.Pass, e ast.Expr, ownPath string) *types.TypeName {
	leaf := true
	for {
		_, isDeref := e.(*ast.StarExpr)
		if !leaf || isDeref {
			if tn := protectedTypeOf(pass, e); tn != nil && tn.Pkg().Path() != ownPath {
				return tn
			}
		}
		leaf = false
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func protectedTypeOf(pass *analysis.Pass, e ast.Expr) *types.TypeName {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if obj := named.Obj(); isProtected(obj) {
		return obj
	}
	return nil
}
