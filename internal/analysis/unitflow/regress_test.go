package unitflow_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandia/internal/analysis"
	"pandia/internal/analysis/analysistest"
	"pandia/internal/analysis/unitflow"
)

func runOnCounters(t *testing.T, moduleDir string) ([]analysis.Diagnostic, *analysis.Package) {
	t.Helper()
	l, err := analysis.NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("pandia/internal/counters")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(unitflow.Analyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return diags, pkg
}

// TestRealCountersClean pins the annotated production package as a negative
// case: the real units are consistent, so unitflow must stay silent.
func TestRealCountersClean(t *testing.T) {
	diags, _ := runOnCounters(t, analysistest.ModuleRoot(t))
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on real counters package: %s", d.Message)
	}
}

// TestSeededUnitBug flips one annotation — DRAMBytes from bytes to
// bytes/sec, the volume/rate confusion the paper's §3 discipline exists to
// prevent — and requires unitflow to report the exact propagation site: the
// DRAM field of the rate vector built in Rates().
func TestSeededUnitBug(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	src, err := os.ReadFile(filepath.Join(root, "internal", "counters", "counters.go"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := strings.Replace(string(src),
		"`json:\"dramBytes\"` //pandia:unit bytes",
		"`json:\"dramBytes\"` //pandia:unit bytes/sec", 1)
	if flipped == string(src) {
		t.Fatal("could not find the DRAMBytes annotation to flip; did counters.go change?")
	}

	// The expected report site: the DRAM field of the composite literal in
	// Rates(), where the mis-declared volume is multiplied by 1/Elapsed.
	wantLine := 0
	for i, line := range strings.Split(flipped, "\n") {
		if strings.Contains(line, "DRAM:") && strings.Contains(line, "inv") {
			wantLine = i + 1
			break
		}
	}
	if wantLine == 0 {
		t.Fatal("could not locate the DRAM rate computation in Rates()")
	}

	tmp := t.TempDir()
	dir := filepath.Join(tmp, "internal", "counters")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module pandia\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "counters.go"), []byte(flipped), 0o644); err != nil {
		t.Fatal(err)
	}

	diags, pkg := runOnCounters(t, tmp)
	if len(diags) == 0 {
		t.Fatal("flipping the DRAMBytes annotation produced no unitflow diagnostics")
	}
	found := false
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		t.Logf("diagnostic: %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		if pos.Line == wantLine && strings.Contains(d.Message, "field DRAM") &&
			strings.Contains(d.Message, "declared bytes/sec") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic at the propagation site (counters.go:%d, the DRAM rate in Rates())", wantLine)
	}
}
