package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func allocs(v float64) *float64 { return &v }

// TestGateMaxAllocs checks the allocs/op ceiling: a matching benchmark at
// or below its recorded allocs/op passes, one above fails, and one the
// reference lacks fails, while unmatched benchmarks are not held to it.
func TestGateMaxAllocs(t *testing.T) {
	ref := File{Runs: []Run{{Label: "current", Benchmarks: []Benchmark{
		{Name: "BenchmarkSubmit/a", NsPerOp: 100, AllocsPerOp: allocs(4)},
		{Name: "BenchmarkRebalance", NsPerOp: 100, AllocsPerOp: allocs(3)},
		{Name: "BenchmarkRebalanceX", NsPerOp: 100, AllocsPerOp: allocs(0)},
	}}}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`BenchmarkSubmit|BenchmarkRebalance$`)
	gate := func(bs ...Benchmark) error {
		return runGate(&Run{Benchmarks: bs}, &Run{}, file, "current", 10, "", re)
	}

	if err := gate(
		Benchmark{Name: "BenchmarkSubmit/a", NsPerOp: 100, AllocsPerOp: allocs(4)},
		Benchmark{Name: "BenchmarkRebalance", NsPerOp: 100, AllocsPerOp: allocs(2)},
		Benchmark{Name: "BenchmarkRebalanceX", NsPerOp: 100, AllocsPerOp: allocs(9)},
	); err != nil {
		t.Fatalf("gate failed within the ceiling: %v", err)
	}
	if err := gate(Benchmark{Name: "BenchmarkSubmit/a", NsPerOp: 100, AllocsPerOp: allocs(5)}); err == nil ||
		!strings.Contains(err.Error(), "above") {
		t.Fatalf("gate passed 5 allocs/op over a ceiling of 4: %v", err)
	}
	if err := gate(Benchmark{Name: "BenchmarkSubmit/new", NsPerOp: 100, AllocsPerOp: allocs(1)}); err == nil {
		t.Fatal("gate passed a benchmark the reference does not record")
	}
	if err := gate(Benchmark{Name: "BenchmarkOther", NsPerOp: 100, AllocsPerOp: allocs(1)}); err == nil {
		t.Fatal("gate passed a run with no benchmark matching -max-allocs")
	}
}

// TestGateBase checks the paired gate: ns/op is held to the base run's and
// not to the labelled run's, while the allocs/op ceiling comes from the
// labelled run.
func TestGateBase(t *testing.T) {
	ref := File{Runs: []Run{{Label: "current", Benchmarks: []Benchmark{
		{Name: "BenchmarkRun", NsPerOp: 100, AllocsPerOp: allocs(1)},
	}}}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`BenchmarkRun$`)
	base := &Run{Benchmarks: []Benchmark{{Name: "BenchmarkRun", NsPerOp: 300}}}
	gate := func(ns, a float64) error {
		return runGate(&Run{Benchmarks: []Benchmark{{Name: "BenchmarkRun", NsPerOp: ns, AllocsPerOp: allocs(a)}}},
			base, file, "current", 0.35, "", re)
	}
	if err := gate(390, 1); err != nil {
		t.Fatalf("gate failed 30%% above the base run (3.9x the labelled run): %v", err)
	}
	if err := gate(420, 1); err == nil || !strings.Contains(err.Error(), "base run") {
		t.Fatalf("gate passed 40%% above the base run: %v", err)
	}
	if err := gate(100, 2); err == nil || !strings.Contains(err.Error(), "above the \"current\" run's 1") {
		t.Fatalf("gate passed 2 allocs/op over the labelled ceiling of 1: %v", err)
	}
}
