package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as a file and returns the body of the first function.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body
		}
	}
	t.Fatal("no function body")
	return nil
}

// constFact maps variable names to a constant value; nil is bottom, the
// empty map is "no information". A variable bound to conflicting constants
// on joining paths maps to top (-1 here, since the fixtures use naturals).
type constFact map[string]int

const top = -1

type constLattice struct{}

func (constLattice) Bottom() Fact   { return constFact(nil) }
func (constLattice) Boundary() Fact { return constFact{} }

func (constLattice) Join(a, b Fact) Fact {
	fa, fb := a.(constFact), b.(constFact)
	if fa == nil {
		return fb
	}
	if fb == nil {
		return fa
	}
	out := constFact{}
	for k, va := range fa {
		if vb, ok := fb[k]; ok && va == vb {
			out[k] = va
		} else {
			out[k] = top
		}
	}
	for k := range fb {
		if _, ok := fa[k]; !ok {
			out[k] = top
		}
	}
	return out
}

func (constLattice) Equal(a, b Fact) bool {
	fa, fb := a.(constFact), b.(constFact)
	if (fa == nil) != (fb == nil) || len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if fb[k] != v {
			return false
		}
	}
	return true
}

func (constLattice) Transfer(b *Block, in Fact) Fact {
	f := in.(constFact)
	if f == nil {
		return f // unreachable stays unreachable
	}
	out := constFact{}
	for k, v := range f {
		out[k] = v
	}
	for _, n := range b.Nodes {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			continue
		}
		if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Kind == token.INT {
			v := 0
			for _, c := range lit.Value {
				v = v*10 + int(c-'0')
			}
			out[id.Name] = v
		} else {
			out[id.Name] = top
		}
	}
	return out
}

const diamondSrc = `package p
func f(c bool) int {
	x := 1
	y := 5
	if c {
		x = 2
	} else {
		x = 3
		y = 5
	}
	return x
}`

func TestDiamondCFGShape(t *testing.T) {
	g := New(parseBody(t, diamondSrc))

	// Entry must branch two ways at the if header, and the join block must
	// have both arms as predecessors.
	var fork, join *Block
	for _, b := range g.Blocks {
		live := b == g.Entry || len(b.Preds) > 0
		if !live {
			continue
		}
		if len(b.Succs) == 2 {
			fork = b
		}
		if len(b.Preds) == 2 && b != g.Exit {
			join = b
		}
	}
	if fork == nil {
		t.Fatal("no two-successor fork block in diamond CFG")
	}
	if join == nil {
		t.Fatal("no two-predecessor join block in diamond CFG")
	}
	// Both of fork's successors must reach join in one step.
	for _, s := range fork.Succs {
		found := false
		for _, ss := range s.Succs {
			if ss == join {
				found = true
			}
		}
		if !found {
			t.Errorf("fork successor %d does not reach the join block", s.Index)
		}
	}
	if len(g.Exit.Succs) != 0 {
		t.Errorf("exit block has successors: %v", g.Exit.Succs)
	}
}

func TestDiamondForwardJoin(t *testing.T) {
	g := New(parseBody(t, diamondSrc))
	res := Solve(g, constLattice{})

	out := res.In[g.Exit].(constFact)
	if out == nil {
		t.Fatal("exit block unreached")
	}
	// x is 2 on one arm, 3 on the other: the join must lose it.
	if got := out["x"]; got != top {
		t.Errorf("x at exit = %d, want top (conflicting constants)", got)
	}
	// y is 5 on both paths (defined before the branch, redefined equal).
	if got := out["y"]; got != 5 {
		t.Errorf("y at exit = %d, want 5 (agreeing constants)", got)
	}
}

func TestLoopConvergence(t *testing.T) {
	src := `package p
func f(n int) int {
	x := 1
	for i := 0; i < n; i++ {
		x = 2
	}
	return x
}`
	g := New(parseBody(t, src))
	res := Solve(g, constLattice{})
	out := res.In[g.Exit].(constFact)
	if out == nil {
		t.Fatal("exit block unreached")
	}
	// Zero iterations leave x=1, one or more set x=2: must join to top.
	if got := out["x"]; got != top {
		t.Errorf("x at exit = %d, want top (loop may or may not run)", got)
	}
}

func TestControlFlowCoverage(t *testing.T) {
	// A grab-bag of control flow the builder must not choke on; the solver
	// must converge within its budget and reach the exit.
	src := `package p
func f(xs []int, ch chan int) int {
	total := 0
outer:
	for i, x := range xs {
		switch {
		case x > 0:
			total = 1
		case x < 0:
			continue outer
		default:
			break outer
		}
		for j := 0; j < i; j++ {
			select {
			case v := <-ch:
				total = v
			default:
				goto done
			}
		}
	}
done:
	return total
}`
	g := New(parseBody(t, src))
	res := Solve(g, constLattice{})
	if res.In[g.Exit].(constFact) == nil {
		t.Fatal("exit unreached through mixed control flow")
	}
}
