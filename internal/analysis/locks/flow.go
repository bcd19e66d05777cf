package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis/callgraph"
	"pandia/internal/analysis/dataflow"
)

// fact is the lock-set dataflow fact: the locks definitely held, the entry
// locks definitely released, the pending deferred unlocks, and which held
// locks this frame acquired itself.
type fact struct {
	bottom   bool
	held     map[LockID]Mode
	released map[LockID]bool
	deferred map[LockID]bool
	// acq maps each held lock that a Lock/RLock statement of this frame
	// acquired to the receiver expression it was locked through. Only these
	// are subject to the in-frame checks (re-lock, wrong-flavour unlock,
	// return while held): the same expression names the same instance,
	// while a LockID alone conflates every instance of a type. Nil until
	// the frame's first Lock, as most frames take none.
	acq map[LockID]string
}

func newFact(entry map[LockID]Mode) *fact {
	f := &fact{held: map[LockID]Mode{}, released: map[LockID]bool{}, deferred: map[LockID]bool{}}
	for id, m := range entry {
		f.held[id] = m
	}
	return f
}

func (f *fact) clone() *fact {
	if f.bottom {
		return &fact{bottom: true}
	}
	c := &fact{
		held:     make(map[LockID]Mode, len(f.held)),
		released: make(map[LockID]bool, len(f.released)),
		deferred: make(map[LockID]bool, len(f.deferred)),
	}
	for k, v := range f.held {
		c.held[k] = v
	}
	if len(f.acq) > 0 {
		c.acq = make(map[LockID]string, len(f.acq))
		for k, v := range f.acq {
			c.acq[k] = v
		}
	}
	for k := range f.released {
		c.released[k] = true
	}
	for k := range f.deferred {
		c.deferred[k] = true
	}
	return c
}

// applyDeferred runs the pending deferred unlocks (at a return or the
// fall-off-the-end exit).
func (f *fact) applyDeferred() {
	for id := range f.deferred {
		if _, ok := f.held[id]; ok {
			delete(f.held, id)
			delete(f.acq, id)
		} else {
			f.released[id] = true
		}
	}
	f.deferred = map[LockID]bool{}
}

// lockLattice adapts the fact to the dataflow solver. The join is the
// definite intersection: a lock is held after a merge only if held on both
// paths (write only if write-held on both).
type lockLattice struct {
	e     *engine
	fn    *callgraph.Node
	entry map[LockID]Mode
}

func (l *lockLattice) Bottom() dataflow.Fact   { return &fact{bottom: true} }
func (l *lockLattice) Boundary() dataflow.Fact { return newFact(l.entry) }

func (l *lockLattice) Join(a, b dataflow.Fact) dataflow.Fact {
	fa, fb := a.(*fact), b.(*fact)
	if fa.bottom {
		return fb
	}
	if fb.bottom {
		return fa
	}
	out := &fact{held: map[LockID]Mode{}, released: map[LockID]bool{}, deferred: map[LockID]bool{}}
	for id, ma := range fa.held {
		if mb, ok := fb.held[id]; ok {
			out.held[id] = minMode(ma, mb)
		}
	}
	for id, xa := range fa.acq {
		if xb, ok := fb.acq[id]; ok && xa == xb && fa.held[id] == fb.held[id] {
			if out.acq == nil {
				out.acq = map[LockID]string{}
			}
			out.acq[id] = xa
		}
	}
	for id := range fa.released {
		if fb.released[id] {
			out.released[id] = true
		}
	}
	for id := range fa.deferred {
		if fb.deferred[id] {
			out.deferred[id] = true
		}
	}
	return out
}

func (l *lockLattice) Equal(a, b dataflow.Fact) bool {
	fa, fb := a.(*fact), b.(*fact)
	if fa.bottom != fb.bottom {
		return false
	}
	if fa.bottom {
		return true
	}
	if len(fa.held) != len(fb.held) || len(fa.released) != len(fb.released) ||
		len(fa.deferred) != len(fb.deferred) || len(fa.acq) != len(fb.acq) {
		return false
	}
	for id, x := range fa.acq {
		if fb.acq[id] != x {
			return false
		}
	}
	for id, m := range fa.held {
		if fb.held[id] != m {
			return false
		}
	}
	for id := range fa.released {
		if !fb.released[id] {
			return false
		}
	}
	for id := range fa.deferred {
		if !fb.deferred[id] {
			return false
		}
	}
	return true
}

func (l *lockLattice) Transfer(b *dataflow.Block, in dataflow.Fact) dataflow.Fact {
	f := in.(*fact)
	if f.bottom {
		return f
	}
	out := f.clone()
	for _, node := range b.Nodes {
		l.e.exec(l.fn, node, out, nil)
	}
	return out
}

// sink receives the engine's observations during a deterministic replay.
// All callbacks are optional.
type sink struct {
	// onAcquire fires for every acquisition visible at this frame: local
	// Lock/RLock statements (via == nil) and the may-acquire set of every
	// called function (via = call chain, anchor = call site).
	onAcquire func(id LockID, mode Mode, anchor, acqPos token.Pos, via []string, f *fact)
	// onBlock fires for blocking operations: local channel ops and
	// classified blocking calls (via as above).
	onBlock func(anchor, opPos token.Pos, desc string, via []string, f *fact)
	// onCall fires before a resolved call edge's effects are applied, with
	// the lock set held at the call.
	onCall func(call *ast.CallExpr, ed *callgraph.Edge, f *fact)
	// onAccess fires for every tracked struct-field access.
	onAccess func(a *FieldAccess)
	// onMisuse fires for in-frame discipline violations on locks this
	// frame acquired: re-locks, wrong-flavour unlocks, and returns with
	// the lock still held and no deferred unlock.
	onMisuse func(pos token.Pos, msg string)
}

// exec interprets one CFG node, mutating the fact and reporting to the
// sink. Nested function literals are opaque (their bodies are separate
// nodes); go/defer spawned work does not affect this frame's lock state.
func (e *engine) exec(fn *callgraph.Node, node ast.Node, f *fact, s *sink) {
	info := fn.Pkg.Info
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// Arguments are evaluated synchronously; the spawned call runs
			// on its own goroutine with its own (empty) entry set.
			for _, arg := range x.Call.Args {
				e.exec(fn, arg, f, s)
			}
			return false
		case *ast.DeferStmt:
			if op, ok := syncCall(x.Call, info); ok && (op.method == "Unlock" || op.method == "RUnlock") {
				f.deferred[op.id] = true
			}
			for _, arg := range x.Call.Args {
				e.exec(fn, arg, f, s)
			}
			return false
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				e.exec(fn, r, f, s)
			}
			if s != nil && s.onMisuse != nil {
				for _, id := range sortedIDs(f.acq) {
					if !f.deferred[id] {
						s.onMisuse(x.Pos(), fmt.Sprintf("return while %s is locked (no deferred unlock)", f.acq[id]))
					}
				}
			}
			f.applyDeferred()
			return false
		case *ast.CallExpr:
			if op, ok := syncCall(x, info); ok {
				e.syncEffect(x, op, f, s)
				return false
			}
			for _, ed := range e.edges[fn][x.Pos()] {
				e.callEffect(fn, x, ed, f, s)
			}
			return true
		case *ast.SendStmt:
			e.blockOp(x.Pos(), "channel send", f, s)
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				e.blockOp(x.Pos(), "channel receive", f, s)
			}
			return true
		case *ast.RangeStmt:
			// The CFG keeps the whole statement as the loop header node;
			// the body belongs to successor blocks, so only X is executed
			// here. Ranging over a channel blocks on every iteration.
			if isChanType(info.TypeOf(x.X)) {
				e.blockOp(x.X.Pos(), "channel receive (range)", f, s)
			}
			e.exec(fn, x.X, f, s)
			return false
		case *ast.SelectorExpr:
			e.accessEffect(fn, x, f, s)
			return true
		}
		return true
	})
}

// syncEffect applies one mutex method call. A call on the expression that
// acquired the lock in this frame is checked against the held mode first.
func (e *engine) syncEffect(call *ast.CallExpr, op syncOp, f *fact, s *sink) {
	if expr, ok := f.acq[op.id]; ok && expr == op.expr && s != nil && s.onMisuse != nil {
		if msg := misuse(op, f.held[op.id]); msg != "" {
			s.onMisuse(call.Pos(), msg)
		}
	}
	switch op.method {
	case "Lock", "RLock":
		mode := ModeWrite
		if op.method == "RLock" {
			mode = ModeRead
		}
		if s != nil && s.onAcquire != nil {
			s.onAcquire(op.id, mode, call.Pos(), call.Pos(), nil, f)
		}
		f.held[op.id] = mode
		if f.acq == nil {
			f.acq = map[LockID]string{}
		}
		f.acq[op.id] = op.expr
	case "Unlock", "RUnlock":
		delete(f.acq, op.id)
		if _, ok := f.held[op.id]; ok {
			delete(f.held, op.id)
		} else {
			f.released[op.id] = true
		}
	case "TryLock", "TryRLock":
		// May or may not acquire: no definite effect on the held set, and
		// the in-frame state is no longer known.
		delete(f.acq, op.id)
	}
}

// misuse renders the in-frame violation of calling op on a lock this frame
// holds in mode held, or "" when the call is fine. A second RLock is
// shareable and allowed.
func misuse(op syncOp, held Mode) string {
	switch {
	case op.method == "Lock" && held == ModeWrite:
		return fmt.Sprintf("second Lock of %s (already locked)", op.expr)
	case op.method == "Lock" && held == ModeRead:
		return fmt.Sprintf("Lock of %s while RLock-ed (upgrade deadlock)", op.expr)
	case op.method == "RLock" && held == ModeWrite:
		return fmt.Sprintf("RLock of %s while Lock-ed (self-deadlock)", op.expr)
	case op.method == "Unlock" && held == ModeRead:
		return fmt.Sprintf("Unlock of RLock-ed %s (want RUnlock)", op.expr)
	case op.method == "RUnlock" && held == ModeWrite:
		return fmt.Sprintf("RUnlock of Lock-ed %s (want Unlock)", op.expr)
	}
	return ""
}

// blockOp reports a local blocking operation (unless it sits in a select
// with a default clause, which cannot block).
func (e *engine) blockOp(pos token.Pos, desc string, f *fact, s *sink) {
	if e.nonBlockPos[pos] {
		return
	}
	if s != nil && s.onBlock != nil {
		s.onBlock(pos, pos, desc, nil, f)
	}
}

// callEffect applies one call edge: the callees' definite deltas compose
// into this frame, their may-acquire and may-block summaries are surfaced
// through the sink. Ref edges (function values being created) may run
// later under a different lock set and contribute nothing here.
func (e *engine) callEffect(fn *callgraph.Node, call *ast.CallExpr, ed *callgraph.Edge, f *fact, s *sink) {
	if ed.Kind == callgraph.Ref {
		return
	}
	if ed.External != nil {
		if desc, ok := blockingExternal(ed.External); ok && s != nil && s.onBlock != nil {
			s.onBlock(call.Pos(), call.Pos(), "call to "+desc, nil, f)
		}
		return
	}
	if len(ed.Callees) == 0 {
		return // unresolved func value: unknown, assumed lock-neutral
	}
	if s != nil && s.onCall != nil {
		s.onCall(call, ed, f)
	}
	isLit := ed.Kind == callgraph.Literal
	if isLit && len(ed.Callees) == 1 {
		lit := ed.Callees[0].Lit
		if lit != nil && e.usage[lit] != litCall {
			return // go/defer/value literal: not executed here
		}
	}

	// Definite deltas: intersection across fan-out callees. May-effects:
	// union.
	var exit map[LockID]Mode
	var rel map[LockID]bool
	acq := map[LockID]*acqInfo{}
	var blk *blockInfo
	var blkVia []string
	for i, c := range ed.Callees {
		sum := e.sums[c]
		if sum == nil {
			sum = &summary{}
		}
		if i == 0 {
			exit = filterHeld(sum.exitHeld, isLit)
			rel = filterSet(sum.releasedEntry, isLit)
		} else {
			exit = intersectHeld(exit, filterHeld(sum.exitHeld, isLit))
			rel = intersectSet(rel, filterSet(sum.releasedEntry, isLit))
		}
		for id, ai := range sum.acquired {
			if !crossesFrame(id, isLit) {
				continue
			}
			if acq[id] == nil {
				acq[id] = &acqInfo{mode: ai.mode, pos: ai.pos,
					via: append([]string{c.Name()}, ai.via...)}
			}
		}
		if blk == nil && sum.blocks != nil {
			blk = sum.blocks
			blkVia = append([]string{c.Name()}, sum.blocks.via...)
		}
	}

	if s != nil && s.onAcquire != nil {
		for _, id := range sortedIDs(acq) {
			ai := acq[id]
			s.onAcquire(id, ai.mode, call.Pos(), ai.pos, ai.via, f)
		}
	}
	if blk != nil && s != nil && s.onBlock != nil {
		s.onBlock(call.Pos(), blk.pos, blk.desc, blkVia, f)
	}
	for id := range rel {
		delete(f.acq, id)
		if _, ok := f.held[id]; ok {
			delete(f.held, id)
		} else {
			f.released[id] = true
		}
	}
	for id, m := range exit {
		delete(f.acq, id)
		f.held[id] = m
	}
}

// crossesFrame reports whether a lock identity keeps its meaning across
// the call: rooted locks always, function-local variables only into
// literals (which share the enclosing scope), rendered expressions never.
func crossesFrame(id LockID, intoLiteral bool) bool {
	if id.rooted() {
		return true
	}
	return intoLiteral && id.kind == kindLocal
}

func filterHeld(m map[LockID]Mode, lit bool) map[LockID]Mode {
	out := map[LockID]Mode{}
	for id, v := range m {
		if crossesFrame(id, lit) {
			out[id] = v
		}
	}
	return out
}

func filterSet(m map[LockID]bool, lit bool) map[LockID]bool {
	out := map[LockID]bool{}
	for id := range m {
		if crossesFrame(id, lit) {
			out[id] = true
		}
	}
	return out
}

func intersectHeld(a, b map[LockID]Mode) map[LockID]Mode {
	out := map[LockID]Mode{}
	for id, ma := range a {
		if mb, ok := b[id]; ok {
			out[id] = minMode(ma, mb)
		}
	}
	return out
}

func intersectSet(a, b map[LockID]bool) map[LockID]bool {
	out := map[LockID]bool{}
	for id := range a {
		if b[id] {
			out[id] = true
		}
	}
	return out
}

// accessEffect records one tracked struct-field access for guardcheck.
func (e *engine) accessEffect(fn *callgraph.Node, x *ast.SelectorExpr, f *fact, s *sink) {
	if s == nil || s.onAccess == nil {
		return
	}
	info := fn.Pkg.Info
	sel, ok := info.Selections[x]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	fld, ok := sel.Obj().(*types.Var)
	if !ok || e.structs[fld] == nil || isMutexType(fld.Type()) {
		return
	}
	root, basePath, okRoot := rootAndPath(x.X, info)
	if !okRoot {
		return
	}
	idx := sel.Index()
	hops, okHops := fieldPathNames(info.TypeOf(x.X), idx[:len(idx)-1])
	if !okHops {
		return
	}
	basePath = append(basePath, hops...)
	rk, okRk := makeRoot(root, true)
	if !okRk {
		return
	}
	held := make(map[LockID]Mode, len(f.held))
	for id, m := range f.held {
		held[id] = m
	}
	s.onAccess(&FieldAccess{
		Field:    fld,
		Pos:      x.Sel.Pos(),
		Write:    e.writes[x.Pos()],
		Fresh:    root.v != nil && e.fresh[fn][root.v],
		InRoot:   fn.Pkg.Types == e.rootPkg,
		FnName:   fn.Name(),
		fn:       fn,
		root:     rk,
		basePath: strings.Join(basePath, "."),
		held:     held,
	})
}

// solveNode runs the lock dataflow over one function with the given entry
// set and returns the per-block facts.
func (e *engine) solveNode(n *callgraph.Node, entry map[LockID]Mode) *dataflow.Result {
	l := &lockLattice{e: e, fn: n, entry: entry}
	return dataflow.Solve(e.cfgs[n], l)
}

// replayNode re-executes every reachable block once, in deterministic
// order, feeding the sink from the converged entry facts.
func (e *engine) replayNode(n *callgraph.Node, res *dataflow.Result, s *sink) {
	g := e.cfgs[n]
	for _, b := range g.Blocks {
		in, ok := res.In[b].(*fact)
		if !ok || in.bottom {
			continue
		}
		f := in.clone()
		for _, node := range b.Nodes {
			e.exec(n, node, f, s)
		}
	}
}

// entryOf returns the inferred entry set of a node (empty before
// inference ran, or for entry points).
func (e *engine) entryOf(n *callgraph.Node) map[LockID]Mode {
	if en := e.entries[n]; en != nil && en.held != nil {
		return en.held
	}
	return nil
}

// chainLabel renders "fn → via0 → via1".
func chainLabel(fn string, via []string) string {
	if len(via) == 0 {
		return fn
	}
	return fn + " → " + strings.Join(via, " → ")
}

// siteLabel renders "(*a.S).Caller at a.go:12".
func (e *engine) siteLabel(fn *callgraph.Node, pos token.Pos) string {
	return fmt.Sprintf("%s at %s", fn.Name(), posLabel(e.fset, pos))
}
