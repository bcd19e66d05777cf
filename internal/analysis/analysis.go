// Package analysis is a self-contained static-analysis framework modelled
// on golang.org/x/tools/go/analysis, built only on the standard library
// (go/parser, go/types) so the repository carries no external dependencies.
//
// It provides the three pieces the pandia-vet suite needs:
//
//   - Analyzer / Pass / Diagnostic: the familiar x/tools API surface, so the
//     checkers under internal/analysis/* read exactly like upstream passes
//     and could be ported to the real framework by changing one import.
//   - Loader: parses and type-checks packages of this module (and GOPATH-style
//     fixture trees for tests), resolving standard-library imports through
//     go/importer's source importer.
//   - SuppressedBy / IsTestFile helpers shared by the individual passes.
//
// The pandia predictor's correctness rests on properties the Go compiler
// cannot see — consistent counter units (§3 of the paper), a deterministic
// fixed-point loop (§5), read-only sharing of placement and topology values —
// and the passes built on this package check those properties mechanically.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics, e.g. "unitflow".
	Name string
	// Doc is a one-paragraph description shown by `pandia-vet help`.
	Doc string
	// Run applies the pass to one package.
	Run func(*Pass) error
	// Restrict, when non-nil, limits which packages the multichecker driver
	// applies the pass to (matched against the package import path). The
	// analysistest harness ignores it so fixtures always run.
	Restrict func(pkgPath string) bool
}

// Diagnostic is one finding of a pass.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries the per-package inputs of one analyzer run, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Deps holds the module-local dependency packages (with syntax), keyed
	// by import path, so passes can read annotations declared in dependency
	// sources. May be nil; standard-library imports never appear.
	Deps map[string]*Package
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// IsDirective reports whether the comment is the machine-readable form of
// the named directive: the name directly follows the comment opener, as in
// //deadlockcheck:ok or /*alloccheck:ok reason*/. Prose that merely quotes a
// directive starts with other text and does not count.
func IsDirective(text, name string) bool {
	return strings.HasPrefix(text, "//"+name) || strings.HasPrefix(text, "/*"+name)
}

// DirectiveLines returns the lines of f covered by the named directive
// (see IsDirective), so passes can honour line-level suppressions such as
// //nanguard:ok. A directive always covers its own line. One with nothing
// but whitespace before it on its line also covers the following line,
// matching how directives are written either trailing the statement or on
// the line above it; a trailing directive never reaches the next line.
func DirectiveLines(fset *token.FileSet, f *ast.File, name string) map[int]bool {
	tf := fset.File(f.Pos())
	// firstCode holds, for each line with a directive, the position of the
	// first code token on it. Node starts and node ends (closing brackets)
	// both count.
	firstCode := make(map[int]token.Pos)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if IsDirective(c.Text, name) {
				firstCode[tf.Line(c.Pos())] = token.NoPos
			}
		}
	}
	out := make(map[int]bool)
	if len(firstCode) == 0 {
		return out
	}
	lines := make([]int, 0, len(firstCode))
	for line := range firstCode {
		lines = append(lines, line)
	}
	sort.Ints(lines)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		start, end := n.Pos(), n.End()-1
		if !start.IsValid() || !end.IsValid() {
			return true
		}
		// A node spanning no directive line has no token on one, and
		// neither have its children.
		first, last := tf.Line(start), tf.Line(end)
		if i := sort.SearchInts(lines, first); i == len(lines) || lines[i] > last {
			return false
		}
		for _, p := range [2]token.Pos{start, end} {
			line := tf.Line(p)
			if fc, ok := firstCode[line]; ok && (fc == token.NoPos || p < fc) {
				firstCode[line] = p
			}
		}
		return true
	})
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !IsDirective(c.Text, name) {
				continue
			}
			line := tf.Line(c.Pos())
			out[line] = true
			if first := firstCode[line]; first == token.NoPos || first > c.Pos() {
				out[line+1] = true
			}
		}
	}
	return out
}

// SuppressedBy returns a predicate reporting whether a position in the
// pass's files is covered by the named directive.
func SuppressedBy(pass *Pass, name string) func(token.Pos) bool {
	byFile := make(map[string]map[int]bool, len(pass.Files))
	for _, f := range pass.Files {
		byFile[pass.Fset.Position(f.Pos()).Filename] = DirectiveLines(pass.Fset, f, name)
	}
	return func(pos token.Pos) bool {
		p := pass.Fset.Position(pos)
		return byFile[p.Filename][p.Line]
	}
}

// CheckReasons reports every use of the named suppression directive in the
// pass's files that states no reason: a silent suppression hides intent
// from the next reader. why describes the expected reason.
func CheckReasons(pass *Pass, name, why string) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !IsDirective(c.Text, name) {
					continue
				}
				if strings.TrimSpace(strings.TrimSuffix(c.Text[2+len(name):], "*/")) == "" {
					pass.Reportf(c.Pos(), "//%s needs a reason (//%s <%s>)", name, name, why)
				}
			}
		}
	}
}

// SortDiagnostics orders findings by position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Message < ds[j].Message
	})
}

// RestrictTo builds a Restrict predicate matching any package whose import
// path contains one of the given fragments.
func RestrictTo(fragments ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, f := range fragments {
			if strings.Contains(pkgPath, f) {
				return true
			}
		}
		return false
	}
}

// Run applies a to pkg and returns the sorted findings.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var ds []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { ds = append(ds, d) },
		Deps:      pkg.Imports,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	SortDiagnostics(pkg.Fset, ds)
	return ds, nil
}
