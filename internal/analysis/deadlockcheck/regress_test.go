package deadlockcheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pandia/internal/analysis"
	"pandia/internal/analysis/analysistest"
	"pandia/internal/analysis/deadlockcheck"
	"pandia/internal/analysis/guardcheck"
)

// concurrencyPackages is the surface both lock passes are restricted to.
var concurrencyPackages = []string{
	"pandia/internal/scheduler",
	"pandia/internal/obs",
	"pandia/internal/eval",
	"pandia/internal/faults",
	"pandia/internal/scenario",
	"pandia/internal/core",
}

// deadlockPackages is deadlockcheck's wider surface: every package outside
// the analysis tooling that imports sync.
var deadlockPackages = append(append([]string{}, concurrencyPackages...),
	"pandia/internal/placement",
	"pandia/internal/simhw",
)

// newLoader builds one loader for the module rooted at moduleDir. Sharing
// it across packages shares type-checked dependencies and the lock engine's
// per-package cache, exactly as the pandia-vet driver does.
func newLoader(t *testing.T, moduleDir string) *analysis.Loader {
	t.Helper()
	l, err := analysis.NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runOn loads one package through the shared loader and runs the analyzer.
func runOn(t *testing.T, a *analysis.Analyzer, l *analysis.Loader, path string) ([]analysis.Diagnostic, *analysis.Package) {
	t.Helper()
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(a, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return diags, pkg
}

// TestRealConcurrencySurfaceClean pins the production packages as negative
// cases: the scheduler's single-mutex discipline, the obs tracer/clock
// nesting, and the fault injectors are provably inversion- and
// blocking-free, so deadlockcheck must stay silent.
func TestRealConcurrencySurfaceClean(t *testing.T) {
	l := newLoader(t, analysistest.ModuleRoot(t))
	for _, path := range deadlockPackages {
		diags, pkg := runOn(t, deadlockcheck.Analyzer, l, path)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			t.Errorf("unexpected diagnostic in %s: %s:%d: %s",
				path, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
}

// TestLockPassesBudget keeps the interprocedural engine's cost visible:
// both passes over the full restricted surface, loaded the way pandia-vet
// loads it, must finish well inside a gate-sized budget. Measured cost is
// a few seconds; the budget absorbs slow CI.
func TestLockPassesBudget(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	start := time.Now()
	l := newLoader(t, root)
	for _, path := range concurrencyPackages {
		runOn(t, deadlockcheck.Analyzer, l, path)
		runOn(t, guardcheck.Analyzer, l, path)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("deadlockcheck+guardcheck over %d packages took %v (budget 30s)",
			len(concurrencyPackages), elapsed)
	}
}

// seededInversion is a two-function lock-order inversion injected into a
// copy of the scheduler package: forward takes order → commit through a
// helper, backward takes commit → order directly. The helper also has a
// lock-free call site so its entry set is inferred empty and the witness
// chain runs through forward's call.
const seededInversion = `package scheduler

import "sync"

type regressionPair struct {
	order  sync.Mutex
	commit sync.Mutex
}

func (p *regressionPair) lockCommit() {
	p.commit.Lock()
	p.commit.Unlock()
}

func (p *regressionPair) forward() {
	p.order.Lock()
	p.lockCommit()
	p.order.Unlock()
}

func (p *regressionPair) backward() {
	p.commit.Lock()
	p.order.Lock()
	p.order.Unlock()
	p.commit.Unlock()
}

func (p *regressionPair) reset() {
	p.lockCommit()
	p.forward()
	p.backward()
}
`

// TestSeededInversionRegression injects the inversion and requires
// deadlockcheck to report the cycle with the interprocedural witness chain
// through the helper.
func TestSeededInversionRegression(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	tmp := t.TempDir()
	analysistest.CopyModule(t, root, tmp)
	inj := filepath.Join(tmp, "internal", "scheduler", "zz_regression.go")
	if err := os.WriteFile(inj, []byte(seededInversion), 0o644); err != nil {
		t.Fatal(err)
	}

	diags, pkg := runOn(t, deadlockcheck.Analyzer, newLoader(t, tmp), "pandia/internal/scheduler")
	if len(diags) == 0 {
		t.Fatal("seeded lock-order inversion produced no deadlockcheck diagnostics")
	}
	found := false
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		t.Logf("diagnostic: %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		if strings.Contains(d.Message, "potential lock-order inversion among (scheduler.regressionPair).commit, (scheduler.regressionPair).order") &&
			strings.Contains(d.Message, "via (*scheduler.regressionPair).forward → (*scheduler.regressionPair).lockCommit") {
			found = true
		}
	}
	if !found {
		t.Error("no diagnostic names the inversion with the forward → lockCommit witness chain")
	}
}
