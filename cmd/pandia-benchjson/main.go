// Command pandia-benchjson parses `go test -bench -benchmem` output from
// stdin and records it as a labelled run in a JSON file, so the perf
// trajectory of the core benchmarks is tracked across changes:
//
//	go test -run='^$' -bench=. -benchmem . | go run ./cmd/pandia-benchjson -label current -out BENCH_core.json
//
// Runs are keyed by label: recording an existing label replaces that run in
// place, so "baseline" stays pinned while "current" follows the tree. With
// -out "" the parsed run is printed and nothing is written (CI smoke mode).
//
// Repeated lines of one benchmark (go test -count=N) collapse to the
// fastest: external load only inflates measurements, so min-of-N is the
// noise-robust estimator on shared hosts, applied identically when
// recording and when gating.
//
// With -gate <label> and -base <file>, nothing is recorded: the command
// fails when a benchmark's ns/op exceeds the -base file's `go test -bench`
// output (a build of the reference revision run alternately with this one,
// min-of-N per side, so both sides saw the same host load) by more than
// -gate-tolerance, when a benchmark named in -zero-alloc reports any
// allocations, or when a benchmark matching the -max-allocs regexp reports
// more allocs/op than the labelled run in -out recorded.
// This is the observability overhead gate: the instrumented predictor hot
// path must stay allocation-free, the scheduler's decision loop must not
// regain allocations, and everything must stay within tolerance of its
// recorded cost.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"nsPerOp"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  *float64 `json:"bytesPerOp,omitempty"`
	AllocsPerOp *float64 `json:"allocsPerOp,omitempty"`
	// Metrics holds custom b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labelled recording of the benchmark suite.
type Run struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	Goos  string `json:"goos,omitempty"`
	Cpu   string `json:"cpu,omitempty"`
	// Benchmarks is every benchmark parsed from the run, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk shape of BENCH_core.json.
type File struct {
	Runs []Run `json:"runs"`
}

func main() {
	label := flag.String("label", "current", "label to record the run under (an existing label is replaced)")
	out := flag.String("out", "BENCH_core.json", "JSON file to update; empty prints the run without writing")
	gate := flag.String("gate", "", "gate instead of recording: hold allocs/op to this labelled run in -out, ns/op to -base; fail on regression")
	baseFile := flag.String("base", "", "in gate mode (required), the reference revision's `go test -bench` output that ns/op is held to")
	gateTol := flag.Float64("gate-tolerance", 0.05, "allowed fractional ns/op regression in gate mode")
	zeroAlloc := flag.String("zero-alloc", "", "comma-separated benchmarks that must report 0 allocs/op in gate mode")
	maxAllocs := flag.String("max-allocs", "", "regexp of benchmarks that may not exceed the labelled run's allocs/op in gate mode")
	flag.Parse()
	if *gate != "" && *baseFile == "" {
		fmt.Fprintln(os.Stderr, "pandia-benchjson: -gate needs -base")
		os.Exit(2)
	}
	var allocRe *regexp.Regexp
	if *maxAllocs != "" {
		var err error
		if allocRe, err = regexp.Compile(*maxAllocs); err != nil {
			fmt.Fprintf(os.Stderr, "pandia-benchjson: bad -max-allocs: %v\n", err)
			os.Exit(2)
		}
	}

	run, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandia-benchjson: %v\n", err)
		os.Exit(1)
	}
	collapseBest(run)
	run.Label = *label
	run.Date = time.Now().UTC().Format("2006-01-02")
	if len(run.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "pandia-benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	for _, b := range run.Benchmarks {
		fmt.Printf("%-32s %12.0f ns/op", b.Name, b.NsPerOp)
		if b.AllocsPerOp != nil {
			fmt.Printf(" %10.0f allocs/op", *b.AllocsPerOp)
		}
		fmt.Println()
	}

	if *gate != "" {
		base, err := parseFile(*baseFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pandia-benchjson: %v\n", err)
			os.Exit(1)
		}
		collapseBest(base)
		if err := runGate(run, base, *out, *gate, *gateTol, *zeroAlloc, allocRe); err != nil {
			fmt.Fprintf(os.Stderr, "pandia-benchjson: gate FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gate passed: ns/op within %.0f%% of the base run, allocs/op within the %q run\n", 100**gateTol, *gate)
		return
	}

	if *out == "" {
		return
	}
	var f File
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "pandia-benchjson: %s is not a bench file: %v\n", *out, err)
			os.Exit(1)
		}
	}
	replaced := false
	for i := range f.Runs {
		if f.Runs[i].Label == run.Label {
			f.Runs[i] = *run
			replaced = true
			break
		}
	}
	if !replaced {
		f.Runs = append(f.Runs, *run)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandia-benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pandia-benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d benchmarks as %q in %s\n", len(run.Benchmarks), run.Label, *out)
}

// runGate compares the parsed run against base and the labelled run in
// file. Every parsed benchmark also present in base must stay within tol
// fractional ns/op of it, every benchmark named in zeroAlloc must report
// exactly 0 allocs/op, and every benchmark allocRe (nil: none) matches
// must report at most the labelled run's allocs/op. Parsed benchmarks
// absent from base pass the timing check (there is nothing to regress
// from); those absent from the labelled run fail the allocs/op ceiling.
func runGate(run, base *Run, file, label string, tol float64, zeroAlloc string, allocRe *regexp.Regexp) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("reading reference %s: %w", file, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s is not a bench file: %w", file, err)
	}
	ref := make(map[string]Benchmark)
	found := false
	for _, r := range f.Runs {
		if r.Label == label {
			found = true
			for _, b := range r.Benchmarks {
				ref[b.Name] = b
			}
		}
	}
	if !found {
		return fmt.Errorf("no run labelled %q in %s", label, file)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsPerOp
	}

	mustZero := make(map[string]bool)
	for _, name := range strings.Split(zeroAlloc, ",") {
		if name = strings.TrimSpace(name); name != "" {
			mustZero[name] = true
		}
	}

	var problems []string
	allocMatched := false
	for _, b := range run.Benchmarks {
		if allocRe != nil && allocRe.MatchString(b.Name) {
			allocMatched = true
			if p := allocCeiling(b, ref[b.Name], label); p != "" {
				problems = append(problems, p)
			}
		}
		if mustZero[b.Name] {
			delete(mustZero, b.Name)
			switch {
			case b.AllocsPerOp == nil:
				problems = append(problems, fmt.Sprintf("%s: no allocs/op reported (run with -benchmem)", b.Name))
			case *b.AllocsPerOp != 0:
				problems = append(problems, fmt.Sprintf("%s: %g allocs/op, must be 0", b.Name, *b.AllocsPerOp))
			}
		}
		ns := baseNs[b.Name]
		if ns <= 0 {
			continue
		}
		growth := b.NsPerOp/ns - 1
		fmt.Printf("%-32s %+6.1f%% vs base (%0.f ns/op)\n", b.Name, 100*growth, ns)
		if growth > tol {
			problems = append(problems, fmt.Sprintf("%s: %.0f ns/op is %.1f%% above the base run's %.0f (tolerance %.0f%%)",
				b.Name, b.NsPerOp, 100*growth, ns, 100*tol))
		}
	}
	for name := range mustZero {
		problems = append(problems, fmt.Sprintf("%s: required zero-alloc benchmark missing from the run", name))
	}
	if allocRe != nil && !allocMatched {
		problems = append(problems, fmt.Sprintf("no benchmark in the run matches -max-allocs %q", allocRe))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// allocCeiling checks one benchmark's allocs/op against its reference
// entry (zero Name when the reference lacks it) and describes a violation,
// or returns "".
func allocCeiling(b, ref Benchmark, label string) string {
	switch {
	case b.AllocsPerOp == nil:
		return fmt.Sprintf("%s: no allocs/op reported (run with -benchmem)", b.Name)
	case ref.Name == "" || ref.AllocsPerOp == nil:
		return fmt.Sprintf("%s: no allocs/op recorded in the %q run to hold it to", b.Name, label)
	case *b.AllocsPerOp > *ref.AllocsPerOp:
		return fmt.Sprintf("%s: %g allocs/op, above the %q run's %g", b.Name, *b.AllocsPerOp, label, *ref.AllocsPerOp)
	}
	return ""
}

// parseFile parses the `go test -bench` output stored in a file.
func parseFile(name string) (*Run, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse reads `go test -bench` output and extracts benchmark lines plus the
// goos/cpu header fields.
func parse(r *os.File) (*Run, error) {
	run := &Run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			run.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			run.Cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: trimProcSuffix(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				v := val
				b.BytesPerOp = &v
			case "allocs/op":
				v := val
				b.AllocsPerOp = &v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		run.Benchmarks = append(run.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return run, nil
}

// collapseBest merges repeated lines of the same benchmark (go test
// -count=N) into one entry keeping the lowest ns/op. Under external load —
// shared CI hosts, single-CPU containers — interference only ever inflates a
// measurement, so the minimum over repeats is the most stable estimator of
// the true cost; recording and gating both collapse, so the comparison is
// min-vs-min and immune to load drift between the two runs.
func collapseBest(run *Run) {
	idx := make(map[string]int, len(run.Benchmarks))
	kept := run.Benchmarks[:0]
	for _, b := range run.Benchmarks {
		if i, ok := idx[b.Name]; ok {
			if b.NsPerOp < kept[i].NsPerOp {
				kept[i] = b
			}
			continue
		}
		idx[b.Name] = len(kept)
		kept = append(kept, b)
	}
	run.Benchmarks = kept
}

// trimProcSuffix drops the -GOMAXPROCS suffix Go appends to benchmark names
// on multi-CPU machines, so names are stable across hosts.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
