// Command pandia-bench is the repository's end-to-end benchmark. It drives
// Pandia the way its callers do, one closed-loop client waiting for each
// reply, over four workloads:
//
//	advise        profile a workload, then Recommend a placement (x5-2)
//	reproduce     measured-vs-predicted placement curves over the zoo (x3-2)
//	sched-churn   scheduler arrivals, departures and socket drains (x5-2)
//	sched-steady  a scheduler control loop over six services (x5-2)
//
// Each run sets the workload up several times, replays a fixed-length
// reference prefix of the seeded op sequence with every output checked,
// warms up, and then measures for -seconds in blocks. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics, or with -trace 1 the per-layer
// ones. Layers are measured from outside, by timing the benchmark's own
// calls into each package and diffing the obs.Default() counters; the
// scheduler's tracer and journal are the program's own.
//
// Usage:
//
//	pandia-bench -workload advise -seed 1 -seconds 20 -trace 0 [-out runs.jsonl] [-trace-dir DIR]
//	pandia-bench -compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl
//
// cmd/pandia-bench/run.sh builds the command from the checkout and runs it;
// see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	o := defaultOptions()
	names := flag.String("workload", "", "comma-separated workloads to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	traceDir := flag.String("trace-dir", "", "with -trace 1, also write each workload's per-layer metrics to this directory")
	outFile := flag.String("out", "", "append one JSON record per run (metrics, digest, host) to this file, for -compare")
	compareMode := flag.Bool("compare", false, "compare two -out files: pandia-bench -compare A.jsonl B.jsonl")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "metric declarations read by -compare")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "pandia-bench: -compare needs two record files")
			return 2
		}
		ok, err := compare(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pandia-bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *names == "" || flag.NArg() != 0 || (*trace != 0 && *trace != 1) || !(o.seconds > 0) {
		flag.Usage()
		return 2
	}
	o.trace = *trace == 1

	// One process, one client goroutine; the program's own sweep workers
	// get at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	status := 0
	for _, name := range strings.Split(*names, ",") {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pandia-bench:", err)
			return 2
		}
		out, err := run(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pandia-bench:", err)
			return 1
		}
		for _, p := range out.problems {
			fmt.Fprintf(os.Stderr, "pandia-bench: %s: check failed: %s\n", w.name, p)
		}
		if *traceDir != "" && o.trace {
			if err := writeLayers(*traceDir, w.name, o.seed, out); err != nil {
				fmt.Fprintln(os.Stderr, "pandia-bench:", err)
				return 1
			}
		}
		if *outFile != "" {
			if err := appendRecord(*outFile, newRecord(out, o)); err != nil {
				fmt.Fprintln(os.Stderr, "pandia-bench:", err)
				return 1
			}
		}
		if err := printOutcome(out, o); err != nil {
			fmt.Fprintln(os.Stderr, "pandia-bench:", err)
			return 1
		}
		if !out.correct() {
			status = 1
		}
	}
	return status
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printOutcome prints the metric table and the decision digest, then the
// result object as the last line.
func printOutcome(out *outcome, o options) error {
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, correct=%v\n",
		out.workload, o.seed, out.attempted, out.failed, out.correct())
	fmt.Printf("decision_digest %016x\n", out.digest)
	for _, name := range sortedKeys(out.metrics) {
		m := out.metrics[name]
		fmt.Printf("  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(out.raw) {
		m := out.raw[name]
		fmt.Printf("  %-40s %14.6g %s (unscaled, not reported)\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// writeLayers writes one workload's per-layer metrics and digest to dir.
func writeLayers(dir, workload string, seed int64, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Digest   string            `json:"decision_digest"`
		Metrics  map[string]metric `json:"metrics"`
	}{workload, seed, fmt.Sprintf("%016x", out.digest), out.metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), append(b, '\n'), 0o644)
}

// hostMeta identifies where and what a run measured.
type hostMeta struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func currentHost() hostMeta {
	h := hostMeta{Go: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// cpuModel reads the processor model name on Linux ("" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// record is one line of an -out file.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Digest    string             `json:"decision_digest"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Host      hostMeta           `json:"host"`
}

func newRecord(out *outcome, o options) record {
	r := record{
		Workload: out.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Digest: fmt.Sprintf("%016x", out.digest), Correct: out.correct(),
		Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]float64, len(out.metrics)), Host: currentHost(),
	}
	for k, m := range out.metrics {
		r.Metrics[k] = m.Value
	}
	return r
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
