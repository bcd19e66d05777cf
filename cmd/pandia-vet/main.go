// Command pandia-vet is the repository's static-analysis multichecker. It
// runs the seven custom passes under internal/analysis — detflow,
// nanguard, mutcheck, errlint, alloccheck, deadlockcheck, guardcheck —
// over module packages and exits non-zero if any finding is reported.
//
// Usage:
//
//	pandia-vet [flags] [packages]
//
// Packages may be import paths ("pandia/internal/core"), directories
// ("./internal/core"), or the "./..." wildcard (the default). Each analyzer
// may restrict itself to the packages it is meant for (e.g. detflow guards
// only the prediction core); -all overrides the restrictions and runs every
// analyzer everywhere.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pandia/internal/analysis"
	"pandia/internal/analysis/alloccheck"
	"pandia/internal/analysis/deadlockcheck"
	"pandia/internal/analysis/detflow"
	"pandia/internal/analysis/errlint"
	"pandia/internal/analysis/guardcheck"
	"pandia/internal/analysis/mutcheck"
	"pandia/internal/analysis/nanguard"
)

var analyzers = []*analysis.Analyzer{
	detflow.Analyzer,
	nanguard.Analyzer,
	mutcheck.Analyzer,
	errlint.Analyzer,
	alloccheck.Analyzer,
	deadlockcheck.Analyzer,
	guardcheck.Analyzer,
}

func main() {
	var (
		all     = flag.Bool("all", false, "run every analyzer on every package, ignoring per-analyzer restrictions")
		tests   = flag.Bool("tests", false, "include in-package _test.go files")
		list    = flag.Bool("list", false, "list the analyzers and exit")
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		verbose = flag.Bool("v", false, "print each package as it is checked")
		jsonOut = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout instead of text")
		stats   = flag.Bool("stats", false, "print per-analyzer wall time and finding counts to stderr")
	)
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "pandia-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	modDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pandia-vet:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(modDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pandia-vet:", err)
		os.Exit(2)
	}
	loader.IncludeTests = *tests

	pkgs, err := resolvePatterns(loader, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pandia-vet:", err)
		os.Exit(2)
	}

	hardErrors := 0
	var report []jsonDiagnostic
	elapsed := make(map[string]time.Duration, len(selected))
	findings := make(map[string]int, len(selected))
	for _, path := range pkgs {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pandia-vet: %v\n", err)
			hardErrors++
			continue
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "checking %s\n", path)
		}
		for _, a := range selected {
			if !*all && a.Restrict != nil && !a.Restrict(path) {
				continue
			}
			start := time.Now()
			diags, err := analysis.Run(a, pkg)
			elapsed[a.Name] += time.Since(start)
			findings[a.Name] += len(diags)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pandia-vet: %v\n", err)
				hardErrors++
				continue
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				rel, rerr := filepath.Rel(modDir, pos.Filename)
				if rerr != nil {
					rel = pos.Filename
				}
				report = append(report, jsonDiagnostic{
					File:     filepath.ToSlash(rel),
					Line:     pos.Line,
					Column:   pos.Column,
					Analyzer: a.Name,
					Package:  path,
					Message:  d.Message,
				})
			}
		}
	}

	if *stats {
		printStats(selected, elapsed, findings)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if report == nil {
			report = []jsonDiagnostic{}
		}
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "pandia-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range report {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Column, d.Analyzer, d.Message)
		}
	}
	if len(report) > 0 || hardErrors > 0 {
		os.Exit(1)
	}
}

// printStats reports each selected analyzer's total wall time across all
// checked packages and how many findings it produced, so slow passes are
// visible before they creep into the edit loop.
func printStats(selected []*analysis.Analyzer, elapsed map[string]time.Duration, findings map[string]int) {
	var total time.Duration
	fmt.Fprintf(os.Stderr, "%-14s %12s %9s\n", "analyzer", "wall", "findings")
	for _, a := range selected {
		total += elapsed[a.Name]
		fmt.Fprintf(os.Stderr, "%-14s %12s %9d\n", a.Name, elapsed[a.Name].Round(time.Microsecond), findings[a.Name])
	}
	fmt.Fprintf(os.Stderr, "%-14s %12s\n", "total", total.Round(time.Microsecond))
}

// jsonDiagnostic is the -json wire format: one finding per element, with the
// file path relative to the module root.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Message  string `json:"message"`
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// resolvePatterns expands the command-line package arguments into import
// paths. Supported forms: "./..." (every module package), "...", import
// paths, and relative directories.
func resolvePatterns(l *analysis.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var out []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	// importPath maps one non-wildcard argument (import path or directory)
	// onto its module import path.
	importPath := func(arg string) (string, error) {
		if arg == l.ModulePath || strings.HasPrefix(arg, l.ModulePath+"/") {
			return arg, nil
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return "", err
		}
		rel, err := filepath.Rel(l.ModuleDir, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return "", fmt.Errorf("package %q is outside module %s", arg, l.ModulePath)
		}
		if rel == "." {
			return l.ModulePath, nil
		}
		return l.ModulePath + "/" + filepath.ToSlash(rel), nil
	}
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			pkgs, err := l.ModulePackages()
			if err != nil {
				return nil, err
			}
			for _, p := range pkgs {
				add(p)
			}
			continue
		}
		if base, ok := strings.CutSuffix(arg, "/..."); ok {
			prefix, err := importPath(base)
			if err != nil {
				return nil, err
			}
			pkgs, err := l.ModulePackages()
			if err != nil {
				return nil, err
			}
			matched := false
			for _, p := range pkgs {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("no packages match %q", arg)
			}
			continue
		}
		p, err := importPath(arg)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	return out, nil
}
