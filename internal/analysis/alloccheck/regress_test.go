package alloccheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/analysis"
	"pandia/internal/analysis/alloccheck"
	"pandia/internal/analysis/analysistest"
)

// runOn loads one package of the module rooted at moduleDir and runs
// alloccheck over it.
func runOn(t *testing.T, moduleDir, path string) ([]analysis.Diagnostic, *analysis.Package) {
	t.Helper()
	l, err := analysis.NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(alloccheck.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return diags, pkg
}

// TestRealHotPathClean pins the annotated production packages as negative
// cases: the //pandia:noalloc entry points (PredictTime, iterate,
// loadSummary, the metric updates, RingTracer.Emit, the testbed's
// fixedPoint) are provably allocation-free, so alloccheck must stay silent.
func TestRealHotPathClean(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	for _, path := range []string{"pandia/internal/core", "pandia/internal/obs", "pandia/internal/simhw"} {
		diags, pkg := runOn(t, root, path)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			t.Errorf("unexpected diagnostic in %s: %s:%d: %s",
				path, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
}

// TestSeededAllocRegression injects the canonical hot-path regression — a
// map insert inside the engine's fixed-point iteration — into a copy of the
// module and requires alloccheck to catch it statically, with the call
// chain reaching the annotated PredictTime entry point.
func TestSeededAllocRegression(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	enginePath := filepath.Join(root, "internal", "core", "engine.go")
	src, err := os.ReadFile(enginePath)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "// (i) Resource contention plus burstiness (§5.1)."
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("could not find the iterate anchor comment %q; did engine.go change?", anchor)
	}
	mutated := strings.Replace(string(src), anchor,
		"regressionScratch[\"iter\"]++\n\t\t"+anchor, 1)
	mutated += "\n// regressionScratch is injected by the seeded alloccheck regression test.\nvar regressionScratch = map[string]int{}\n"

	tmp := t.TempDir()
	analysistest.CopyModule(t, root, tmp)
	if err := os.WriteFile(filepath.Join(tmp, "internal", "core", "engine.go"), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	diags, pkg := runOn(t, tmp, "pandia/internal/core")
	if len(diags) == 0 {
		t.Fatal("seeded map insert in iterate produced no alloccheck diagnostics")
	}
	found := false
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		t.Logf("diagnostic: %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		if strings.Contains(d.Message, "map update regressionScratch") &&
			strings.HasSuffix(d.Message, "← (*core.Predictor).PredictTime") {
			found = true
		}
	}
	if !found {
		t.Error("no diagnostic names the seeded map update with a call chain ending at (*core.Predictor).PredictTime")
	}
}
