package detflow_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/analysis"
	"pandia/internal/analysis/analysistest"
	"pandia/internal/analysis/detflow"
)

func TestDetflowFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", detflow.Analyzer, "a")
}

// TestDetflowCoversObservability pins the pass's scope: the observability
// layer records timestamps, so a bare time.Now there would make traces
// irreproducible. It must stay under detflow's restriction (timestamps come
// from an injected obs.Clock instead).
func TestDetflowCoversObservability(t *testing.T) {
	for _, pkg := range []string{
		"pandia/internal/core",
		"pandia/internal/simhw",
		"pandia/internal/eval",
		"pandia/internal/faults",
		"pandia/internal/obs",
	} {
		if !detflow.Analyzer.Restrict(pkg) {
			t.Errorf("detflow does not cover %s", pkg)
		}
	}
	if detflow.Analyzer.Restrict("pandia/cmd/pandia-eval") {
		t.Error("detflow must not restrict cmd/ packages (wall-clock timing lives there)")
	}
}

// seededHelper is an exported helper in an unrestricted package that hides
// a map iteration one call below the core.
const seededHelper = `package topology

// RegressionLoadSum sums per-socket loads in map order.
func RegressionLoadSum(loads map[int]float64) float64 {
	sum := 0.0
	for _, v := range loads {
		sum += v
	}
	return sum
}
`

// TestSeededHelperMapRange covers detflow's interprocedural half on the real
// tree: a copy of the module gains a topology helper that ranges over a map,
// called from core.newEngineState. detflow must report it at the core call
// line, naming the map iteration and the call path out of the core.
func TestSeededHelperMapRange(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	src, err := os.ReadFile(filepath.Join(root, "internal", "core", "engine.go"))
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "\ttopo := md.Topo\n"
	if strings.Count(string(src), anchor) != 1 {
		t.Fatalf("could not find newEngineState's anchor %q once; did engine.go change?", anchor)
	}
	const call = "\t_ = topology.RegressionLoadSum(nil)\n"
	mutated := strings.Replace(string(src), anchor, anchor+call, 1)
	callLine := strings.Count(mutated[:strings.Index(mutated, call)], "\n") + 1

	tmp := t.TempDir()
	analysistest.CopyModule(t, root, tmp)
	if err := os.WriteFile(filepath.Join(tmp, "internal", "core", "engine.go"), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "internal", "topology", "zz_regression.go"), []byte(seededHelper), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := analysis.NewLoader(tmp)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("pandia/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(detflow.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		t.Logf("diagnostic: %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		if filepath.Base(pos.Filename) == "engine.go" && pos.Line == callLine &&
			strings.Contains(d.Message, "iteration over map loads") &&
			strings.Contains(d.Message, "call path: topology.RegressionLoadSum ← core.newEngineState;") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic at engine.go:%d names the helper's map iteration with call path topology.RegressionLoadSum ← core.newEngineState", callLine)
	}
}
