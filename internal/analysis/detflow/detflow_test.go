package detflow_test

import (
	"testing"

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
