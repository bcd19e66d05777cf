// Package guardcheck enforces guarded-by discipline for struct fields: a
// field declared with
//
//	//pandia:guardedby(mu)
//
// (on the field's doc or trailing comment; multiple comma-separated locks
// have any-of semantics, each naming a sibling mutex by field path) must
// only be read while one of its guards is held, and only be written while
// a guard is write-held. The internal/analysis/locks engine supplies the
// lock set at every access, including locks inherited from callers —
// helper functions whose every call site holds the lock are proven, not
// flagged.
//
// Fields with no annotation are checked by majority vote: if a field of a
// mutex-carrying struct is mutated somewhere and at least three quarters
// of its accesses (and at least three) hold the same sibling mutex, the
// bare accesses are reported as likely missed guards.
//
// Accesses through a freshly constructed local value (the constructor
// idiom: s := &Scheduler{...}; s.tokens = ...) are exempt — no other
// goroutine can reach the object yet. Intended bare accesses are
// suppressed with a trailing
//
//	//guardcheck:ok <reason>
//
// on the reported line (or the line above); the reason is mandatory.
// Findings in _test.go files are ignored.
package guardcheck

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"

	"pandia/internal/analysis"
	"pandia/internal/analysis/locks"
)

// Analyzer is the guardcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "guardcheck",
	Doc:  "check that //pandia:guardedby fields (and majority-vote inferred guarded fields) are only accessed under their lock",
	Run:  run,
	Restrict: analysis.RestrictTo("internal/scheduler", "internal/obs", "internal/eval",
		"internal/faults", "internal/scenario", "internal/core"),
}

// Inference thresholds: a field qualifies for majority-vote guarding when
// at least inferMinGuarded accesses hold the same sibling mutex and the
// guarded sites outnumber the bare ones at least inferRatio to one.
const (
	inferMinGuarded = 3
	inferRatio      = 3
)

type checker struct {
	pass       *analysis.Pass
	suppressed func(token.Pos) bool // covered by //guardcheck:ok
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, suppressed: analysis.SuppressedBy(pass, "guardcheck:ok")}
	analysis.CheckReasons(pass, "guardcheck:ok", "why this bare access is safe")

	res := locks.Analyze(pass)
	for _, d := range res.GuardErrs {
		if !pass.IsTestFile(d.Pos) {
			pass.Report(d)
		}
	}
	c.checkAnnotated(res)
	c.checkInferred(res)
	return nil
}

// checkAnnotated reports accesses of annotated fields outside their
// declared guards.
func (c *checker) checkAnnotated(res *locks.Result) {
	for _, a := range res.Accesses {
		if !a.InRoot || a.Fresh {
			continue
		}
		g := res.GuardOf(a.Field)
		if g == nil {
			continue
		}
		need := locks.ModeRead
		if a.Write {
			need = locks.ModeWrite
		}
		satisfied := false
		readOnly := false
		for _, lp := range g.Locks {
			m := a.GuardMode(lp)
			if m >= need {
				satisfied = true
				break
			}
			if m == locks.ModeRead {
				readOnly = true
			}
		}
		if satisfied {
			continue
		}
		verb := "read"
		if a.Write {
			verb = "written"
		}
		names := make([]string, len(g.Locks))
		for i, lp := range g.Locks {
			names[i] = a.GuardName(lp)
		}
		msg := fmt.Sprintf("guarded field %s.%s is %s in %s without holding %s",
			res.StructDisp(a.Field), a.Field.Name(), verb, a.FnName, strings.Join(names, " or "))
		if readOnly {
			msg = fmt.Sprintf("guarded field %s.%s is %s in %s holding only the read lock (%s)",
				res.StructDisp(a.Field), a.Field.Name(), verb, a.FnName, strings.Join(names, " or "))
		}
		msg += res.EntryNote(a, g.Locks[0])
		c.report(a.Pos, msg)
	}
}

// checkInferred applies majority-vote inference to unannotated fields of
// mutex-carrying structs: votes are counted across the whole closure,
// bare accesses are reported only in this package.
func (c *checker) checkInferred(res *locks.Result) {
	type tally struct {
		field    *types.Var
		accesses []*locks.FieldAccess
		hasWrite bool
	}
	var order []*types.Var
	byField := map[*types.Var]*tally{}
	for _, a := range res.Accesses {
		if a.Fresh {
			continue
		}
		if res.GuardOf(a.Field) != nil || len(res.MutexPaths(a.Field)) == 0 {
			continue
		}
		t := byField[a.Field]
		if t == nil {
			t = &tally{field: a.Field}
			byField[a.Field] = t
			order = append(order, a.Field)
		}
		t.accesses = append(t.accesses, a)
		if a.Write {
			t.hasWrite = true
		}
	}
	for _, fld := range order {
		t := byField[fld]
		// Fields never mutated outside a constructor are read-only after
		// construction; bare reads of those are fine.
		if !t.hasWrite {
			continue
		}
		bestPath := ""
		bestGuarded := -1
		for _, mp := range res.MutexPaths(fld) {
			guarded := 0
			for _, a := range t.accesses {
				if holdsGuard(a, mp) {
					guarded++
				}
			}
			if guarded > bestGuarded {
				bestGuarded = guarded
				bestPath = mp
			}
		}
		bare := len(t.accesses) - bestGuarded
		if bestGuarded < inferMinGuarded || bare == 0 || bestGuarded < inferRatio*bare {
			continue
		}
		for _, a := range t.accesses {
			if !a.InRoot || holdsGuard(a, bestPath) {
				continue
			}
			verb := "read"
			if a.Write {
				verb = "written"
			}
			msg := fmt.Sprintf("field %s.%s is accessed under %s on %d of %d sites but is %s in %s without it (inferred guard; annotate with //pandia:guardedby(%s) or suppress)",
				res.StructDisp(fld), fld.Name(), a.GuardName(bestPath),
				bestGuarded, len(t.accesses), verb, a.FnName, bestPath)
			msg += res.EntryNote(a, bestPath)
			c.report(a.Pos, msg)
		}
	}
}

// holdsGuard reports whether the access holds the guard strongly enough
// for its kind (writes need the write lock, reads either).
func holdsGuard(a *locks.FieldAccess, guardPath string) bool {
	need := locks.ModeRead
	if a.Write {
		need = locks.ModeWrite
	}
	return a.GuardMode(guardPath) >= need
}

// report emits one finding unless it lies in a test file or its line
// carries a //guardcheck:ok suppression.
func (c *checker) report(pos token.Pos, msg string) {
	if c.pass.IsTestFile(pos) || c.suppressed(pos) {
		return
	}
	c.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}
