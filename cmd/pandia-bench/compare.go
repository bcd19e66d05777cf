package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// declaration is the part of BENCHMARK.json the comparison reads.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics are per-layer results that depend only on the seed: a change
// that moves one up is a regression whatever the host's noise (bound 0).
// Lower is better for each.
var exactMetrics = []string{"eval.median_err_pct", "eval.best_gap_pct", "scheduler.reject_frac"}

// minPairs is the number of alternating parent/change pairs a verdict
// needs; improved additionally needs winShare of the pairs won.
const (
	minPairs = 10
	winShare = 0.9
)

func readDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles are Python's statistics.quantiles(values, n=4) with its default
// exclusive method, so the spreads printed here are the ones the
// benchmark's acceptance rule computes. The middle value is the median.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies the paired rule to one metric: a and b are the parent's
// and the change's values in run order (pair i is a[i], b[i]). It also
// returns how many pairs the change won.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, int) {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	better := func(x, y float64) bool { return (lowerBetter && x < y) || (!lowerBetter && x > y) }
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if n < minPairs {
		return fmt.Sprintf("unresolved (%d pairs, need %d)", n, minPairs), wins
	}
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	spread := math.Max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm))
	worse := (bm - am) / math.Abs(am)
	if !lowerBetter {
		worse = -worse
	}
	allVs := func(pred func(x, y float64) bool) bool {
		for _, x := range b {
			for _, y := range a {
				if !pred(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case float64(wins) >= winShare*float64(n) && math.Abs(bm-am) > a3-a1:
		return "improved", wins
	case worse > bound:
		if spread <= bound || allVs(func(x, y float64) bool { return better(y, x) }) {
			return "regressed", wins
		}
		return "unresolved (spread above bound)", wins
	case spread > bound && !allVs(better):
		return "unresolved (spread above bound)", wins
	}
	return "unchanged", wins
}

// compare prints the parent-versus-change table for two -out files and
// reports whether the change passes: no regressed metric, no decision
// digest mismatch on a shared seed, no higher failure share, and no exact
// metric worse.
func compare(w io.Writer, declPath, aPath, bPath string) (bool, error) {
	decl, err := readDeclaration(declPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}

	hostsA, hostsB := hosts(a), hosts(b)
	if len(hostsA) != 1 || len(hostsB) != 1 || hostsA[0] != hostsB[0] {
		fmt.Fprintf(w, "warning: the runs compared come from different hosts or builds:\n")
		for _, h := range hostsA {
			fmt.Fprintf(w, "  %s: %+v\n", aPath, h)
		}
		for _, h := range hostsB {
			fmt.Fprintf(w, "  %s: %+v\n", bPath, h)
		}
	}

	fmt.Fprintf(w, "%-13s %-16s %26s %26s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "change", "wins", "verdict")
	for _, wl := range workloads {
		ra, rb := byWorkload(a, wl.name), byWorkload(b, wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		digests := map[int64]string{}
		exact := map[int64]map[string]float64{}
		var failA, attA, failB, attB int64
		for _, r := range ra {
			digests[r.Seed] = r.Digest
			if r.Trace {
				exact[r.Seed] = r.Metrics
			}
			failA, attA = failA+r.Failed, attA+r.Attempted
		}
		for _, r := range rb {
			if d, seen := digests[r.Seed]; seen && d != r.Digest {
				fail("%s seed %d: decision digest %s, parent %s", wl.name, r.Seed, r.Digest, d)
			}
			if prev, seen := exact[r.Seed]; seen && r.Trace {
				for _, name := range exactMetrics {
					if r.Metrics[name] > prev[name] {
						fail("%s seed %d: %s rose from %v to %v", wl.name, r.Seed, name, prev[name], r.Metrics[name])
					}
				}
			}
			failB, attB = failB+r.Failed, attB+r.Attempted
		}
		if ratio(float64(failB), float64(attB)) > ratio(float64(failA), float64(attA)) {
			fail("%s: failed share %d/%d, parent %d/%d", wl.name, failB, attB, failA, attA)
		}
		for _, m := range decl.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, wins := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "regressed" {
				ok = false
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-13s %-16s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%% %2d/%-3d  %s\n",
				wl.name, m.Name, am, a1, a3, bm, b1, b3, 100*(bm-am)/am, wins, min(len(va), len(vb)), v)
		}
	}
	return ok, nil
}

func hosts(rs []record) []hostMeta {
	var out []hostMeta
	for _, r := range rs {
		seen := false
		for _, h := range out {
			seen = seen || h == r.Host
		}
		if !seen {
			out = append(out, r.Host)
		}
	}
	return out
}

func byWorkload(rs []record, name string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// values collects one end-to-end metric from the untraced records, in
// file order.
func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok && !r.Trace {
			out = append(out, v)
		}
	}
	return out
}
