package guardcheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/analysis"
	"pandia/internal/analysis/analysistest"
	"pandia/internal/analysis/guardcheck"
)

// concurrencyPackages is the surface guardcheck is restricted to.
var concurrencyPackages = []string{
	"pandia/internal/scheduler",
	"pandia/internal/obs",
	"pandia/internal/eval",
	"pandia/internal/faults",
	"pandia/internal/scenario",
	"pandia/internal/core",
}

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

// runOn loads one package through the shared loader and runs guardcheck.
func runOn(t *testing.T, l *analysis.Loader, path string) ([]analysis.Diagnostic, *analysis.Package) {
	t.Helper()
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(guardcheck.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return diags, pkg
}

// TestRealGuardedFieldsClean pins the annotated production structs as
// negative cases: every access to a //pandia:guardedby field in the
// scheduler, obs, eval, faults, and scenario packages is provably under its
// lock, so guardcheck must stay silent.
func TestRealGuardedFieldsClean(t *testing.T) {
	l := newLoader(t, analysistest.ModuleRoot(t))
	for _, path := range concurrencyPackages {
		diags, pkg := runOn(t, l, path)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			t.Errorf("unexpected diagnostic in %s: %s:%d: %s",
				path, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
}

// seededEscape reintroduces the exact bug guardcheck caught in the real
// scheduler (and this PR fixed): a placement strategy implemented as a
// method value stored in a strategy table. The escape pins the method's
// entry lock set to ∅ — the analysis cannot assume callers hold s.mu — so
// its bare read of the guarded occupancy table must be reported. The fix in
// the real code snapshots the occupancy under the lock and passes it to a
// pure function; this fixture keeps the pre-fix shape from coming back.
const seededEscape = `package scheduler

import (
	"pandia/internal/placement"
	"pandia/internal/topology"
)

var regressionStrategies = []struct {
	name string
	fn   func([]topology.Context, int, topology.Machine) placement.Placement
}{}

func (s *Scheduler) regressionRegister() {
	regressionStrategies = append(regressionStrategies, struct {
		name string
		fn   func([]topology.Context, int, topology.Machine) placement.Placement
	}{"quiet-socket", s.regressionQuietSocket})
}

func (s *Scheduler) regressionQuietSocket(free []topology.Context, n int, m topology.Machine) placement.Placement {
	busy := make([]int, m.Sockets)
	for i, owner := range s.owner {
		if owner != nil {
			busy[m.ContextAt(i).Socket]++
		}
	}
	if len(free) < n || len(busy) == 0 {
		return nil
	}
	return nil
}
`

// TestSeededMethodValueRegression injects the pre-fix strategy shape and
// requires guardcheck to flag the unguarded read of the occupancy table.
func TestSeededMethodValueRegression(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	tmp := t.TempDir()
	analysistest.CopyModule(t, root, tmp)
	inj := filepath.Join(tmp, "internal", "scheduler", "zz_regression.go")
	if err := os.WriteFile(inj, []byte(seededEscape), 0o644); err != nil {
		t.Fatal(err)
	}

	diags, pkg := runOn(t, newLoader(t, tmp), "pandia/internal/scheduler")
	if len(diags) == 0 {
		t.Fatal("seeded method-value escape produced no guardcheck diagnostics")
	}
	found := false
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		t.Logf("diagnostic: %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		if strings.Contains(d.Message, "guarded field scheduler.Scheduler.owner is read in (*scheduler.Scheduler).regressionQuietSocket without holding (scheduler.Scheduler).mu") {
			found = true
			if filepath.Base(pos.Filename) != "zz_regression.go" {
				t.Errorf("diagnostic anchored at %s, want zz_regression.go", pos.Filename)
			}
		}
	}
	if !found {
		t.Error("no diagnostic names the bare read of Scheduler.owner in the escaped method value")
	}
}
