package deadlockcheck_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pandia/internal/analysis/analysistest"
	"pandia/internal/analysis/deadlockcheck"
)

func TestDeadlockcheckFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", deadlockcheck.Analyzer, "a")
}

// TestDeadlockcheckCoversSyncPackages pins the pass's scope: every package
// outside the analysis tooling whose non-test files import sync must stay
// under deadlockcheck's restriction, and the tooling itself stays outside.
func TestDeadlockcheckCoversSyncPackages(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	covered := 0
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "sync" {
				continue
			}
			rel, _ := filepath.Rel(root, filepath.Dir(path))
			pkg := "pandia/" + filepath.ToSlash(rel)
			if strings.HasPrefix(pkg, "pandia/internal/analysis") {
				if deadlockcheck.Analyzer.Restrict(pkg) {
					t.Errorf("deadlockcheck restricts analysis tooling %s", pkg)
				}
			} else if !deadlockcheck.Analyzer.Restrict(pkg) {
				t.Errorf("%s imports sync but deadlockcheck does not cover it", pkg)
			} else {
				covered++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if covered == 0 {
		t.Error("found no sync-importing package; the walk is broken")
	}
}
