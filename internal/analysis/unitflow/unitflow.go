// Package unitflow is the flow-sensitive unit-inference pass of pandia-vet.
//
// The paper's model is unit-agnostic — "so long as consistent units are
// used ... the exact scale is not significant" (§3) — which makes unit
// mixing the one numeric bug class the type system cannot catch: adding a
// byte volume to a duration type-checks fine and silently corrupts every
// downstream prediction. A check of identifier suffixes inside a single
// expression misses any value that flows through a local, a struct field,
// or a function boundary.
//
// unitflow closes that gap with a dataflow analysis on the CFG of every
// function: unit tags (seconds, bytes, bytes/sec, instructions, ratio,
// hertz — see Unit) are seeded from declared sources and propagated through
// assignments, arithmetic, composite literals, returns and calls. Declared
// sources are //pandia:unit annotations on struct fields, package vars,
// named types, function results and parameters; built-in knowledge of
// time.Duration; and the identifier-suffix families (Bytes, Secs, Hz,
// PerSec) as a seeding strategy. Per-function result summaries are inferred
// on demand across the module-local import closure, giving a cheap
// interprocedural lift without a whole-program analysis.
//
// Reported:
//   - additions, subtractions and comparisons of unlike dimensions;
//   - assignments and composite-literal fields whose value's inferred unit
//     contradicts the destination's declared unit;
//   - returns that contradict the function's declared result unit;
//   - arguments that contradict a parameter's declared unit;
//   - conversions to a unit-annotated named type from a different dimension
//     (unit-dropping/changing conversions);
//   - unparseable //pandia:unit annotations.
//
// A finding can be suppressed with a trailing //unitflow:ok comment.
package unitflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
	"pandia/internal/analysis/dataflow"
)

// Analyzer is the unitflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "unitflow",
	Doc: "flow-sensitive unit inference: propagate //pandia:unit tags through assignments, " +
		"arithmetic, returns and calls, and flag cross-dimension mixing",
	Run: run,
}

func run(pass *analysis.Pass) error {
	a := &analyzer{
		pass:     pass,
		seeds:    collect(pass),
		sumMemo:  make(map[*types.Func]Unit),
		suppress: make(map[string]map[int]bool),
	}
	for _, f := range pass.Files {
		lines := analysis.LineComments(pass.Fset, f)
		m := make(map[int]bool)
		for line, text := range lines {
			if strings.Contains(text, "unitflow:ok") {
				m[line] = true
			}
		}
		a.suppress[pass.Fset.Position(f.Pos()).Filename] = m
	}
	for _, b := range a.seeds.badAnnots {
		a.report(b.pos, "bad //pandia:unit annotation: %s", b.msg)
	}
	for _, f := range pass.Files {
		for _, fn := range dataflow.Functions(f) {
			w := &walker{a: a, info: pass.TypesInfo, fn: fn, reporting: true}
			w.declaredResult(pass.TypesInfo)
			w.analyze()
		}
	}
	return nil
}

type analyzer struct {
	pass     *analysis.Pass
	seeds    *seeds
	sumMemo  map[*types.Func]Unit
	suppress map[string]map[int]bool
}

func (a *analyzer) report(pos token.Pos, format string, args ...any) {
	p := a.pass.Fset.Position(pos)
	if m, ok := a.suppress[p.Filename]; ok && m[p.Line] {
		return
	}
	if a.pass.IsTestFile(pos) {
		return
	}
	a.pass.Reportf(pos, format, args...)
}

// summaryOf resolves the result unit of a called function: its annotation if
// present, a built-in rule for the time package, or an on-demand inferred
// summary of its body (memoised; recursion yields unknown).
func (a *analyzer) summaryOf(fn *types.Func) Unit {
	if fn == nil {
		return Unknown
	}
	if u, ok := a.seeds.results[fn]; ok {
		return u
	}
	if u, ok := builtinSummary(fn); ok {
		return u
	}
	if u, ok := a.sumMemo[fn]; ok {
		return u
	}
	src, ok := a.seeds.funcDecls[fn]
	if !ok {
		return Unknown
	}
	a.sumMemo[fn] = Unknown // recursion guard
	w := &walker{
		a:    a,
		info: src.info,
		fn: dataflow.Function{
			Decl: src.decl, Name: src.decl.Name.Name,
			Body: src.decl.Body, Type: src.decl.Type,
		},
	}
	w.declaredResult(src.info)
	u := w.analyze()
	a.sumMemo[fn] = u
	return u
}

// builtinSummary hard-codes the standard-library functions whose results
// carry a unit the annotations cannot reach.
func builtinSummary(fn *types.Func) (Unit, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return Unknown, false
	}
	switch fn.Name() {
	case "Since", "Until", "Seconds", "Minutes", "Hours",
		"Nanoseconds", "Microseconds", "Milliseconds":
		return Seconds, true
	}
	return Unknown, false
}

// walker analyses one function.
type walker struct {
	a         *analyzer
	info      *types.Info
	fn        dataflow.Function
	reporting bool
	// result is the function's declared result unit (annotation), if any.
	result         Unit
	resultDeclared bool
	// retUnits collects the units of single-result returns for summary
	// inference (final walk only).
	retUnits []Unit
}

func (w *walker) declaredResult(info *types.Info) {
	if w.fn.Decl == nil {
		return
	}
	if fn, ok := info.Defs[w.fn.Decl.Name].(*types.Func); ok {
		if u, ok := w.a.seeds.results[fn]; ok {
			w.result, w.resultDeclared = u, true
		}
	}
}

// env is the dataflow fact: inferred units of local variables. A nil map is
// the unreached bottom; a missing key means "consult the seeds".
type env map[types.Object]Unit

func cloneEnv(e env) env {
	if e == nil {
		return nil
	}
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

type lattice struct{ w *walker }

func (l lattice) Bottom() dataflow.Fact   { return env(nil) }
func (l lattice) Boundary() dataflow.Fact { return env{} }

func (l lattice) Join(a, b dataflow.Fact) dataflow.Fact {
	ea, eb := a.(env), b.(env)
	if ea == nil {
		return cloneEnv(eb)
	}
	if eb == nil {
		return cloneEnv(ea)
	}
	out := make(env, len(ea))
	for k, va := range ea {
		if vb, ok := eb[k]; ok && va.Equal(vb) {
			out[k] = va
		} else {
			out[k] = Unknown // conflicting or one-sided: give up on the var
		}
	}
	for k := range eb {
		if _, ok := ea[k]; !ok {
			out[k] = Unknown
		}
	}
	return out
}

func (l lattice) Equal(a, b dataflow.Fact) bool {
	ea, eb := a.(env), b.(env)
	if (ea == nil) != (eb == nil) || len(ea) != len(eb) {
		return false
	}
	for k, va := range ea {
		if vb, ok := eb[k]; !ok || !va.Equal(vb) {
			return false
		}
	}
	return true
}

func (l lattice) Transfer(b *dataflow.Block, in dataflow.Fact) dataflow.Fact {
	e := cloneEnv(in.(env))
	if e == nil {
		return env(nil) // unreachable stays unreachable
	}
	for _, n := range b.Nodes {
		l.w.execNode(n, e, false)
	}
	return e
}

// analyze solves the function's CFG and replays each block once for
// reporting and summary collection, returning the inferred result unit.
func (w *walker) analyze() Unit {
	g := dataflow.New(w.fn.Body)
	res := dataflow.Solve(g, lattice{w}, dataflow.Forward)
	for _, b := range g.Blocks {
		e := cloneEnv(res.In[b].(env))
		if e == nil {
			continue // unreachable code is not replayed
		}
		for _, n := range b.Nodes {
			w.execNode(n, e, true)
		}
	}
	// Summary: all single-result returns agree on a known dimension.
	if w.resultDeclared {
		return w.result
	}
	var out Unit
	for i, u := range w.retUnits {
		if !u.Known() {
			return Unknown
		}
		if i == 0 {
			out = u
		} else if !out.SameDim(u) {
			return Unknown
		}
	}
	return out
}

// execNode interprets one CFG node: updates e with the node's effects and,
// on the final walk, reports definite unit conflicts.
func (w *walker) execNode(n ast.Node, e env, final bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n, e, final)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var u Unit
					if i < len(vs.Values) {
						u = w.eval(vs.Values[i], e, final)
					}
					w.bind(name, u, e, final)
				}
			}
		}
	case *ast.RangeStmt:
		u := w.eval(n.X, e, final)
		// Container and element share the unit by convention; keys carry
		// none (indices and map keys are counts).
		if n.Value != nil {
			w.bind(n.Value, u, e, final)
		}
		if n.Key != nil {
			w.bind(n.Key, Unknown, e, final)
		}
	case *ast.ReturnStmt:
		for i, r := range n.Results {
			u := w.eval(r, e, final)
			if i == 0 {
				if final && w.reporting && w.resultDeclared && w.result.Mixes(u) {
					w.a.report(r.Pos(), "unit mismatch: returning %s value from %s, declared %s",
						u, w.fn.Name, w.result)
				}
				if final && len(n.Results) >= 1 {
					w.retUnits = append(w.retUnits, u)
				}
			}
		}
	case *ast.SendStmt:
		uc := w.eval(n.Chan, e, final)
		uv := w.eval(n.Value, e, final)
		if final && w.reporting && uc.Mixes(uv) {
			w.a.report(n.Arrow, "unit mismatch: sending %s value on %s channel", uv, uc)
		}
	case *ast.IncDecStmt:
		w.eval(n.X, e, final)
	case *ast.ExprStmt:
		w.eval(n.X, e, final)
	case *ast.GoStmt:
		w.eval(n.Call, e, final)
	case *ast.DeferStmt:
		w.eval(n.Call, e, final)
	case ast.Expr:
		w.eval(n, e, final)
	}
}

// assign interprets every flavour of assignment statement.
func (w *walker) assign(n *ast.AssignStmt, e env, final bool) {
	switch n.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(n.Lhs) == len(n.Rhs) {
			// Evaluate all RHS first (tuple semantics), then bind.
			us := make([]Unit, len(n.Rhs))
			for i, r := range n.Rhs {
				us[i] = w.eval(r, e, final)
			}
			for i, l := range n.Lhs {
				w.bind(l, us[i], e, final)
			}
			return
		}
		// x, y := f(): no per-result inference; reset the targets.
		for _, r := range n.Rhs {
			w.eval(r, e, final)
		}
		for _, l := range n.Lhs {
			w.bind(l, Unknown, e, final)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		ul := w.eval(n.Lhs[0], e, final)
		ur := w.eval(n.Rhs[0], e, final)
		if final && w.reporting && ul.Mixes(ur) && isNumeric(w.info, n.Lhs[0]) {
			w.a.report(n.TokPos, "unit mismatch: %s (%s) %s %s (%s)",
				types.ExprString(n.Lhs[0]), ul, n.Tok, types.ExprString(n.Rhs[0]), ur)
		}
	case token.MUL_ASSIGN:
		ul := w.eval(n.Lhs[0], e, final)
		ur := w.eval(n.Rhs[0], e, final)
		w.bind(n.Lhs[0], ul.Mul(ur), e, final)
	case token.QUO_ASSIGN:
		ul := w.eval(n.Lhs[0], e, final)
		ur := w.eval(n.Rhs[0], e, final)
		w.bind(n.Lhs[0], ul.Div(ur), e, final)
	default:
		for _, r := range n.Rhs {
			w.eval(r, e, final)
		}
	}
}

// bind records that dst now holds a value of unit u, reporting stores that
// contradict the destination's declared unit.
func (w *walker) bind(dst ast.Expr, u Unit, e env, final bool) {
	switch dst := unparen(dst).(type) {
	case *ast.Ident:
		if dst.Name == "_" {
			return
		}
		obj := w.objOf(dst)
		if obj == nil {
			return
		}
		decl := w.declaredOf(obj)
		if final && w.reporting && decl.Mixes(u) {
			w.a.report(dst.Pos(), "unit mismatch: assigning %s value to %s (declared %s)",
				u, dst.Name, decl)
		}
		if decl.Known() {
			e[obj] = decl // the declaration is the contract
		} else {
			e[obj] = u
		}
	case *ast.SelectorExpr:
		w.eval(dst.X, e, final)
		obj := w.fieldOf(dst)
		decl := w.declaredOf(obj)
		if !decl.Known() && obj != nil {
			decl = suffixUnit(obj.Name())
		}
		if final && w.reporting && decl.Mixes(u) {
			w.a.report(dst.Pos(), "unit mismatch: assigning %s value to %s (declared %s)",
				u, types.ExprString(dst), decl)
		}
	case *ast.IndexExpr:
		container := w.eval(dst.X, e, final)
		w.eval(dst.Index, e, final)
		if final && w.reporting && container.Mixes(u) && isNumeric(w.info, dst) {
			w.a.report(dst.Pos(), "unit mismatch: storing %s value into %s (%s)",
				u, types.ExprString(dst.X), container)
		}
	case *ast.StarExpr:
		target := w.eval(dst.X, e, final)
		if final && w.reporting && target.Mixes(u) {
			w.a.report(dst.Pos(), "unit mismatch: storing %s value through %s (%s)",
				u, types.ExprString(dst.X), target)
		}
	}
}

// eval computes the unit of an expression, recursing into every
// subexpression so conflicts nested anywhere are found, and reporting
// definite mixes on the final walk.
func (w *walker) eval(x ast.Expr, e env, final bool) Unit {
	switch x := x.(type) {
	case *ast.ParenExpr:
		return w.eval(x.X, e, final)

	case *ast.Ident:
		if tv, ok := w.info.Types[x]; ok && tv.Value != nil {
			return Poly
		}
		return w.unitOfObj(w.objOf(x), e)

	case *ast.BasicLit:
		return Poly

	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB, token.ADD, token.AND:
			return w.eval(x.X, e, final)
		case token.ARROW: // <-ch: the channel shares its element's unit
			return w.eval(x.X, e, final)
		default:
			w.eval(x.X, e, final)
			return Unknown
		}

	case *ast.StarExpr:
		return w.eval(x.X, e, final)

	case *ast.BinaryExpr:
		return w.binary(x, e, final)

	case *ast.SelectorExpr:
		// Qualified package identifier (pkg.Var)?
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := w.objOf(id).(*types.PkgName); isPkg {
				if tv, ok := w.info.Types[x]; ok && tv.Value != nil {
					return Poly
				}
				return w.unitOfObj(w.useOf(x.Sel), e)
			}
		}
		w.eval(x.X, e, final)
		if f := w.fieldOf(x); f != nil {
			return w.unitOfObj(f, e)
		}
		return Unknown

	case *ast.IndexExpr:
		w.eval(x.Index, e, final)
		if t := typeOf(w.info, x.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Map, *types.Pointer:
				return w.eval(x.X, e, final)
			}
		}
		// Generic instantiation or unknown container.
		w.eval(x.X, e, final)
		return Unknown

	case *ast.IndexListExpr:
		w.eval(x.X, e, final)
		return Unknown

	case *ast.SliceExpr:
		for _, idx := range []ast.Expr{x.Low, x.High, x.Max} {
			if idx != nil {
				w.eval(idx, e, final)
			}
		}
		return w.eval(x.X, e, final)

	case *ast.CallExpr:
		return w.call(x, e, final)

	case *ast.CompositeLit:
		w.composite(x, e, final)
		return Unknown

	case *ast.TypeAssertExpr:
		w.eval(x.X, e, final)
		if x.Type != nil {
			if t := typeOf(w.info, x.Type); t != nil {
				return w.a.seeds.typeUnit(t)
			}
		}
		return Unknown

	case *ast.FuncLit:
		// Analysed separately via dataflow.Functions; opaque here.
		return Unknown
	}
	return Unknown
}

func (w *walker) binary(x *ast.BinaryExpr, e env, final bool) Unit {
	ul := w.eval(x.X, e, final)
	ur := w.eval(x.Y, e, final)
	switch x.Op {
	case token.ADD, token.SUB:
		if !isNumeric(w.info, x.X) || !isNumeric(w.info, x.Y) {
			return Unknown // string +, etc.
		}
		if final && w.reporting && ul.Mixes(ur) {
			w.a.report(x.OpPos, "unit mismatch: %s (%s) %s %s (%s)",
				types.ExprString(x.X), ul, x.Op, types.ExprString(x.Y), ur)
		}
		u, _ := ul.AddLike(ur)
		return u
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		if isNumeric(w.info, x.X) && isNumeric(w.info, x.Y) &&
			final && w.reporting && ul.Mixes(ur) {
			w.a.report(x.OpPos, "unit mismatch: comparing %s (%s) %s %s (%s)",
				types.ExprString(x.X), ul, x.Op, types.ExprString(x.Y), ur)
		}
		return Unknown
	case token.MUL:
		return ul.Mul(ur)
	case token.QUO:
		if !isNumeric(w.info, x.X) {
			return Unknown
		}
		return ul.Div(ur)
	case token.REM:
		u, _ := ul.AddLike(ur)
		return u
	}
	return Unknown
}

// call resolves conversions, built-ins, and function/method calls.
func (w *walker) call(x *ast.CallExpr, e env, final bool) Unit {
	// Type conversion: T(v) keeps v's unit unless T itself declares one, in
	// which case converting across dimensions is a unit-changing conversion.
	if tv, ok := w.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
		argU := w.eval(x.Args[0], e, final)
		target := w.a.seeds.typeUnit(tv.Type)
		if target.Known() {
			if final && w.reporting && target.Mixes(argU) {
				w.a.report(x.Pos(), "unit mismatch: converting %s value to %s (%s)",
					argU, types.ExprString(x.Fun), target)
			}
			return target
		}
		return argU
	}

	fn := w.calleeFunc(x.Fun)

	// Unit-transparent math helpers.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		switch fn.Name() {
		case "Abs", "Floor", "Ceil", "Round", "Trunc":
			if len(x.Args) == 1 {
				return w.eval(x.Args[0], e, final)
			}
		case "Max", "Min":
			if len(x.Args) == 2 {
				ul := w.eval(x.Args[0], e, final)
				ur := w.eval(x.Args[1], e, final)
				if final && w.reporting && ul.Mixes(ur) {
					w.a.report(x.Pos(), "unit mismatch: comparing %s (%s) with %s (%s)",
						types.ExprString(x.Args[0]), ul, types.ExprString(x.Args[1]), ur)
				}
				u, _ := ul.AddLike(ur)
				return u
			}
		}
	}

	// Evaluate arguments, checking declared parameter units.
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	for i, arg := range x.Args {
		u := w.eval(arg, e, final)
		if sig == nil || i >= sig.Params().Len() {
			continue
		}
		p := sig.Params().At(i)
		decl, ok := w.a.seeds.params[p]
		if !ok {
			continue
		}
		if final && w.reporting && decl.Mixes(u) {
			w.a.report(arg.Pos(), "unit mismatch: passing %s value to parameter %s (declared %s) of %s",
				u, p.Name(), decl, fn.Name())
		}
	}
	if fn == nil {
		// Builtin or dynamic call: evaluate Fun for completeness.
		w.eval(x.Fun, e, final)
		return Unknown
	}
	return w.a.summaryOf(fn)
}

// composite checks struct literals field by field.
func (w *walker) composite(x *ast.CompositeLit, e env, final bool) {
	t := typeOf(w.info, x)
	var st *types.Struct
	if t != nil {
		if s, ok := t.Underlying().(*types.Struct); ok {
			st = s
		}
	}
	for i, elt := range x.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			u := w.eval(kv.Value, e, final)
			if id, ok := kv.Key.(*ast.Ident); ok && st != nil {
				fieldObj, _ := w.useOf(id).(*types.Var)
				decl := w.declaredOf(fieldObj)
				if !decl.Known() && fieldObj != nil {
					decl = suffixUnit(fieldObj.Name())
				}
				if final && w.reporting && decl.Mixes(u) {
					w.a.report(kv.Value.Pos(), "unit mismatch: field %s (declared %s) set from %s value",
						id.Name, decl, u)
				}
			}
			continue
		}
		u := w.eval(elt, e, final)
		if st != nil && i < st.NumFields() {
			f := st.Field(i)
			decl := w.declaredOf(f)
			if !decl.Known() {
				decl = suffixUnit(f.Name())
			}
			if final && w.reporting && decl.Mixes(u) {
				w.a.report(elt.Pos(), "unit mismatch: field %s (declared %s) set from %s value",
					f.Name(), decl, u)
			}
		}
	}
}

// unitOfObj resolves an object's unit: declaration first (annotations are
// contracts), then the flow fact, then the type's unit, then the suffix
// seeding heuristic.
func (w *walker) unitOfObj(obj types.Object, e env) Unit {
	if obj == nil {
		return Unknown
	}
	if _, ok := obj.(*types.Const); ok {
		return Poly
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return Unknown
	}
	if u := w.declaredOf(v); u.Known() {
		return u
	}
	if u, ok := e[v]; ok {
		return u
	}
	if u := w.a.seeds.typeUnit(v.Type()); u.Known() {
		return u
	}
	if numericType(v.Type()) {
		return suffixUnit(v.Name())
	}
	return Unknown
}

// declaredOf looks the object up in the annotation tables only.
func (w *walker) declaredOf(obj types.Object) Unit {
	v, ok := obj.(*types.Var)
	if !ok || v == nil {
		return Unknown
	}
	if u, ok := w.a.seeds.fields[v]; ok {
		return u
	}
	if u, ok := w.a.seeds.params[v]; ok {
		return u
	}
	if u, ok := w.a.seeds.vars[v]; ok {
		return u
	}
	return Unknown
}

func (w *walker) objOf(id *ast.Ident) types.Object {
	if obj := w.info.Uses[id]; obj != nil {
		return obj
	}
	return w.info.Defs[id]
}

func (w *walker) useOf(id *ast.Ident) types.Object { return w.info.Uses[id] }

// fieldOf resolves a selector to a struct field object, or nil.
func (w *walker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := w.info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	v, _ := w.info.Uses[sel.Sel].(*types.Var)
	return v
}

// calleeFunc resolves the called function or method object, or nil for
// dynamic and builtin calls.
func (w *walker) calleeFunc(fun ast.Expr) *types.Func {
	switch fun := unparen(fun).(type) {
	case *ast.Ident:
		f, _ := w.objOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		if s, ok := w.info.Selections[fun]; ok {
			f, _ := s.Obj().(*types.Func)
			return f
		}
		f, _ := w.info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return w.calleeFunc(fun.X)
	case *ast.IndexListExpr:
		return w.calleeFunc(fun.X)
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isNumeric(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

func numericType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
