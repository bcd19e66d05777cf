// Package locks is the interprocedural lock-set engine behind the
// deadlockcheck and guardcheck passes. It layers on the repository's
// callgraph (SCC bottom-up summaries) and dataflow (CFG/worklist) packages
// to compute, for every function in a package's module-local closure:
//
//   - an entry lock set: the locks every caller provably holds at the call
//     (the intersection over all call sites, computed top-down — exported
//     functions and functions whose address escapes get the empty set);
//   - an exit delta: locks definitely acquired-and-still-held at return and
//     entry locks definitely released, so lock()/unlock() helper idioms
//     compose across frames;
//   - a may-acquire summary: every lock any transitive callee can take,
//     each with a call-chain witness, feeding a global lock-acquisition-
//     order graph whose cycles are potential deadlocks;
//   - a may-block summary: whether any path performs a channel operation or
//     a known-blocking standard-library call (WaitGroup.Wait, Cond.Wait,
//     time.Sleep, net/http, os/exec), with a witness.
//
// Lock identity is compositional in the RacerD style: a lock reached
// through a field path from a variable of named type T is identified as
// (T).path, so s.mu.Lock() in a caller and the callee method it invokes on
// the same receiver name the same abstract lock. Distinct instances of one
// type are deliberately conflated — the engine proves a per-type locking
// DISCIPLINE, not per-object mutual exclusion. Locks the engine cannot
// name (index expressions, call results) degrade to function-local
// identities that never cross frames.
//
// The engine is shared: Analyze memoizes its Result per root package, so
// deadlockcheck and guardcheck pay for one closure walk, not two.
package locks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Mode is the strength of a lock acquisition.
type Mode uint8

const (
	// ModeRead is a shared acquisition (RLock).
	ModeRead Mode = iota + 1
	// ModeWrite is an exclusive acquisition (Lock).
	ModeWrite
)

// String names the mode for diagnostics.
func (m Mode) String() string {
	if m == ModeRead {
		return "read"
	}
	return "write"
}

// minMode returns the weaker of two acquisition strengths, for definite
// joins: a lock write-held on one path and read-held on another is only
// definitely read-held.
func minMode(a, b Mode) Mode {
	if a < b {
		return a
	}
	return b
}

// lockKind classifies how a LockID is rooted.
type lockKind uint8

const (
	// kindType roots the lock at a named type: any variable of type T (or
	// *T) reaching the lock through the same field path names the same
	// lock. This is the compositional identity that crosses call frames.
	kindType lockKind = iota
	// kindGlobal roots the lock at a package-level variable.
	kindGlobal
	// kindLocal roots the lock at one local variable whose type gives no
	// named root (a bare `var mu sync.Mutex`). The identity crosses into
	// function literals that capture the variable, but not static calls.
	kindLocal
	// kindExpr is the fallback for expressions with no nameable root
	// (call results, elements of unnamed type, a bare mutex element);
	// purely function-local.
	kindExpr
)

// LockID names one abstract lock. It is comparable and used as a map key;
// two IDs are the same lock exactly when their fields are equal.
type LockID struct {
	kind lockKind
	typ  *types.TypeName // kindType: the named root type
	obj  types.Object    // kindGlobal/kindLocal: the root variable
	path string          // dotted field path from the root ("" when the root is the mutex)
	name string          // kindExpr: rendered expression; else the display form
}

// String renders the lock for reports: "(scheduler.Scheduler).mu",
// "scenario.machineCache.Mutex", or a local variable's name.
func (id LockID) String() string { return id.name }

// rooted reports whether the ID survives crossing a static call frame:
// type- and global-rooted locks keep their meaning in the callee,
// local/expression locks do not.
func (id LockID) rooted() bool { return id.kind == kindType || id.kind == kindGlobal }

// shortPath compresses an import path for display, matching callgraph.
func shortPath(path string) string {
	path = strings.TrimPrefix(path, "pandia/internal/")
	path = strings.TrimPrefix(path, "pandia/")
	return path
}

// rootKey identifies the base object a field access is rooted at, so guard
// lookups can rebuild the sibling lock's LockID. It is a LockID with an
// empty path.
type rootKey struct {
	kind lockKind
	typ  *types.TypeName
	obj  types.Object
}

// childID builds the LockID of a field path under a root.
func (r rootKey) childID(path string) LockID {
	id := LockID{kind: r.kind, typ: r.typ, obj: r.obj, path: path}
	switch r.kind {
	case kindType:
		id.name = "(" + typeDisp(r.typ) + ")." + path
	case kindGlobal, kindLocal:
		id.name = objDisp(r.obj)
		if path != "" {
			id.name += "." + path
		}
	}
	return id
}

func typeDisp(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return shortPath(tn.Pkg().Path()) + "." + tn.Name()
}

func objDisp(o types.Object) string {
	if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
		return shortPath(o.Pkg().Path()) + "." + o.Name()
	}
	return o.Name()
}

// lockRoot is what a selector chain is rooted at: a variable, or the named
// type of a slice, array or map element (elem).
type lockRoot struct {
	v    *types.Var
	elem *types.TypeName
}

// rootAndPath peels a selector chain down to its root, collecting the
// dotted field path (including implicit embedded-field hops resolved
// through go/types selections). The root is a variable, or an indexed
// element whose type is named (T or *T): the element then stands for any
// variable of its type, so j.slots[i].mu names the same lock as s.mu after
// s := &j.slots[i]. It fails on anything else.
func rootAndPath(x ast.Expr, info *types.Info) (lockRoot, []string, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok {
			v, ok = info.Defs[x].(*types.Var)
		}
		return lockRoot{v: v}, nil, ok
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return lockRoot{}, nil, false
		}
		root, path, ok := rootAndPath(x.X, info)
		if !ok {
			return lockRoot{}, nil, false
		}
		hops, ok := fieldPathNames(info.TypeOf(x.X), sel.Index())
		if !ok {
			return lockRoot{}, nil, false
		}
		return root, append(path, hops...), true
	case *ast.StarExpr:
		return rootAndPath(x.X, info)
	case *ast.IndexExpr:
		if tn := namedRoot(info.TypeOf(x)); tn != nil {
			return lockRoot{elem: tn}, nil, true
		}
	}
	return lockRoot{}, nil, false
}

// fieldPathNames maps a go/types selection index path onto field names,
// starting from the (possibly pointer) base type. This surfaces implicit
// embedded hops: machineCache.Lock() on a struct embedding sync.Mutex
// yields ["Mutex"] for the promoted receiver.
func fieldPathNames(base types.Type, index []int) ([]string, bool) {
	names := make([]string, 0, len(index))
	t := base
	for _, i := range index {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i < 0 || i >= st.NumFields() {
			return nil, false
		}
		f := st.Field(i)
		names = append(names, f.Name())
		t = f.Type()
	}
	return names, true
}

// namedRoot returns the named type of a (possibly pointer) type, or nil.
func namedRoot(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// makeRoot classifies a root. An element root names a lock only through a
// field path: the element itself may be a bare mutex, and every mutex of
// its type would then be one lock.
func makeRoot(root lockRoot, hasPath bool) (rootKey, bool) {
	switch {
	case root.elem != nil:
		return rootKey{kind: kindType, typ: root.elem}, hasPath
	case root.v.Pkg() != nil && root.v.Parent() == root.v.Pkg().Scope():
		return rootKey{kind: kindGlobal, obj: root.v}, true
	case hasPath:
		if tn := namedRoot(root.v.Type()); tn != nil {
			return rootKey{kind: kindType, typ: tn}, true
		}
		return rootKey{kind: kindLocal, obj: root.v}, true
	default:
		return rootKey{kind: kindLocal, obj: root.v}, true
	}
}

// lockIDOf canonicalizes the expression a sync method was invoked on (plus
// any implicit embedded path) into a LockID. The fallback for unnameable
// expressions renders the expression itself, local to the function.
func lockIDOf(base ast.Expr, implicit []string, info *types.Info) LockID {
	root, path, ok := rootAndPath(base, info)
	if ok {
		path = append(path, implicit...)
		if rk, ok := makeRoot(root, len(path) > 0); ok {
			return rk.childID(strings.Join(path, "."))
		}
	}
	disp := types.ExprString(base)
	if len(implicit) > 0 {
		disp += "." + strings.Join(implicit, ".")
	}
	return LockID{kind: kindExpr, name: disp}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (by name).
func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" &&
		(o.Name() == "Mutex" || o.Name() == "RWMutex")
}

// syncOp is one recognized mutex method call.
type syncOp struct {
	id     LockID
	method string // Lock, Unlock, RLock, RUnlock, TryLock, TryRLock
	expr   string // the receiver as written, e.g. "s.mu"
}

var syncMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
}

// syncCall recognizes a call of a sync.Mutex / sync.RWMutex method
// (including promoted methods of embedded mutexes) and canonicalizes the
// receiver into a LockID.
func syncCall(call *ast.CallExpr, info *types.Info) (syncOp, bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return syncOp{}, false
	}
	sel, ok := info.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return syncOp{}, false
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || !syncMethods[fn.Name()] {
		return syncOp{}, false
	}
	// The method's own receiver must be a mutex (excludes e.g. sync.Map
	// methods, which share no names anyway, and sync.Locker interface
	// calls, whose Selections recv is the interface).
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if !isMutexType(recv) {
		return syncOp{}, false
	}
	// All but the last selection index are implicit embedded-field hops
	// from the receiver expression to the mutex.
	idx := sel.Index()
	implicit, ok := fieldPathNames(info.TypeOf(fun.X), idx[:len(idx)-1])
	if !ok {
		return syncOp{}, false
	}
	return syncOp{id: lockIDOf(fun.X, implicit, info), method: fn.Name(), expr: types.ExprString(fun.X)}, true
}

// blockingExternal classifies a standard-library function the engine
// treats as blocking while holding a lock. Unknown externals and dynamic
// calls are deliberately NOT classified — treating every opaque call as
// blocking would drown real findings (documented soundness trade-off).
func blockingExternal(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "sync":
		if fn.Name() == "Wait" { // (*WaitGroup).Wait, (*Cond).Wait
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil {
				return "sync." + recvTypeName(sig) + ".Wait", true
			}
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "net/http", "net", "os/exec":
		return pkg.Path() + "." + fn.Name(), true
	}
	return "", false
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// isChanType reports whether t is (or derefs to) a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// sortedIDs returns the map's keys in display order, for deterministic
// iteration over held/acquired sets.
func sortedIDs[V any](m map[LockID]V) []LockID {
	ids := make([]LockID, 0, len(m))
	for id := range m { // sorted below
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].name != ids[j].name {
			return ids[i].name < ids[j].name
		}
		return ids[i].path < ids[j].path
	})
	return ids
}

// holding renders a held set for messages: "holding (a.S).mu" or
// "holding (a.S).mu, (a.S).mu2".
func holding(held map[LockID]Mode) string {
	ids := sortedIDs(held)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return strings.Join(parts, ", ")
}

// posLabel renders a position as "file.go:12" (basename only), for
// embedding in messages whose anchor is elsewhere.
func posLabel(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
