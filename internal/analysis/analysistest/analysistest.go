// Package analysistest runs analyzers against GOPATH-style fixture trees,
// mirroring golang.org/x/tools/go/analysis/analysistest on top of the
// repository's self-contained framework.
//
// Fixtures live under <testdata>/src/<pkgpath>/ and mark expected findings
// with trailing comments of the form
//
//	x := bad() // want "regexp"
//
// Each `want` comment holds one or more double- or back-quoted regular
// expressions; every diagnostic reported on that line must match one of
// them, every expectation must be matched by a diagnostic, and diagnostics
// on lines without a want comment are errors.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pandia/internal/analysis"
)

// wantRe captures the regexes of a `// want "..."` comment.
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// ModuleRoot walks up from the test's working directory to go.mod.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// CopyModule copies the module's go.mod and every non-test Go file under
// internal/ (skipping analyzer fixture trees) into dst, preserving layout,
// so a seeded-regression test can mutate the copy and analyse it.
func CopyModule(t *testing.T, root, dst string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dst, "go.mod"), []byte("module pandia\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(root, "internal")
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Run loads each fixture package below testdata/src, applies the analyzer,
// and checks its findings against the `want` comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &analysis.Loader{
		Fset:         token.NewFileSet(),
		FixtureRoot:  filepath.Join(testdata, "src"),
		IncludeTests: true,
	}
	for _, path := range pkgPaths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		expects, err := collectExpectations(pkg)
		if err != nil {
			t.Error(err)
			continue
		}
		diags, err := analysis.Run(a, pkg)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !match(expects, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for _, e := range expects {
			if !e.hit {
				t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.re)
			}
		}
	}
}

func collectExpectations(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllString(m[1], -1) {
					pat := arg
					if strings.HasPrefix(pat, "\"") {
						unq, err := strconv.Unquote(pat)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want pattern %s: %v", pos, pat, err)
						}
						pat = unq
					} else {
						pat = strings.Trim(pat, "`")
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

func match(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.hit && e.file == file && e.line == line && e.re.MatchString(msg) {
			e.hit = true
			return true
		}
	}
	return false
}
