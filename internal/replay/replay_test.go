package replay

import (
	"math"
	"math/rand"
	"testing"
)

// TestSumMatchesSequential holds the register replay to adding agent by
// agent into each sum alone, bit for bit.
//
// "random" has 1 to Width accumulators in use, runs of 0 to 72 agents, and
// addends of mixed magnitudes, zero and subnormal included.
//
// "engine" lays the sums out as the predictor's engine does: the L3
// aggregate of each socket, then the DRAM of each, then the interconnect
// of each socket pair, on 1 to 4 sockets, so 4 sockets take 4+4+6 = 14
// slots in two passes. A co-schedule of jobs, each on some of the sockets,
// adds into the same sums in job order: each pass replays one job's runs
// after another's into the same accumulators, over that job's rows of
// addends, its classes numbered from 0. A class with no DRAM demand feeds only
// its L3 slot. The reference is the per-thread loop the replay replaced:
// per run, the L3 sum, then each of the job's sockets' DRAM and the link
// to it, each sum skipping what the thread does not feed.
func TestSumMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 2:
			return rng.Float64() * 1e-300
		case 3:
			return rng.Float64() * 1e12
		default:
			return rng.ExpFloat64()
		}
	}
	t.Run("random", func(t *testing.T) {
		for used := 1; used <= Width; used++ {
			for trial := 0; trial < 40; trial++ {
				nCls := 1 + rng.Intn(6)
				add := make([][Width]float64, nCls)
				for k := range add {
					for i := 0; i < used; i++ {
						add[k][i] = pick()
					}
				}
				var runs []Run
				for n := 0; n <= 72; n += 1 + rng.Intn(12) {
					runs = append(runs, Run{Cls: int32(rng.Intn(nCls)), N: int32(n)})
				}
				var acc [Width]float64
				for i := 0; i < used; i++ {
					acc[i] = pick()
				}
				want := acc
				for i := 0; i < used; i++ {
					for _, r := range runs {
						for m := int32(0); m < r.N; m++ {
							want[i] += add[r.Cls][i]
						}
					}
				}
				Sum(&acc, add, runs)
				for i := 0; i < used; i++ {
					if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%d accumulators, trial %d: accumulator %d = %v, one at a time %v", used, trial, i, acc[i], want[i])
					}
				}
			}
		}
	})
	t.Run("engine", func(t *testing.T) {
		for nSock := 1; nSock <= 4; nSock++ {
			for trial := 0; trial < 50; trial++ {
				checkEngineLayout(t, rng, pick, nSock, trial)
			}
		}
	})
}

// engineClass is one class of a job in the engine-shaped layout: its
// socket and its per-thread L3 demand and DRAM share.
type engineClass struct {
	sock      int
	l3, share float64
}

// engineJob is one job of a co-schedule: the sockets it uses, its classes
// and its runs over them.
type engineJob struct {
	socks   []int
	classes []engineClass
	runs    []Run
}

// pairIndex numbers the pairs of nSock sockets in lexicographic order.
func pairIndex(nSock, a, b int) int {
	if a > b {
		a, b = b, a
	}
	return a*(2*nSock-a-1)/2 + b - a - 1
}

func checkEngineLayout(t *testing.T, rng *rand.Rand, pick func() float64, nSock, trial int) {
	t.Helper()
	nPairs := nSock * (nSock - 1) / 2
	slots := 2*nSock + nPairs
	jobs := make([]engineJob, 1+rng.Intn(3))
	for ji := range jobs {
		j := &jobs[ji]
		for s := 0; s < nSock; s++ {
			if rng.Intn(2) == 0 || s == nSock-1 && len(j.socks) == 0 {
				j.socks = append(j.socks, s)
			}
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			c := engineClass{sock: j.socks[rng.Intn(len(j.socks))], l3: pick(), share: pick()}
			if rng.Intn(3) == 0 {
				c.share = 0 // no DRAM demand: the class feeds its L3 slot alone
			}
			j.classes = append(j.classes, c)
		}
		for n := 1 + rng.Intn(8); n > 0; n-- {
			j.runs = append(j.runs, Run{Cls: int32(rng.Intn(len(j.classes))), N: int32(rng.Intn(20))})
		}
	}

	// The per-thread loop, job after job into the same sums.
	want := make([]float64, slots)
	for _, j := range jobs {
		for _, r := range j.runs {
			c := j.classes[r.Cls]
			for m := int32(0); m < r.N; m++ {
				want[c.sock] += c.l3
			}
			if c.share <= 0 {
				continue
			}
			for _, u := range j.socks {
				for m := int32(0); m < r.N; m++ {
					want[nSock+u] += c.share
				}
				if u != c.sock {
					p := 2*nSock + pairIndex(nSock, c.sock, u)
					for m := int32(0); m < r.N; m++ {
						want[p] += 2 * c.share
					}
				}
			}
		}
	}

	// The replay: per pass, each job's runs in job order into accumulators
	// that carry from job to job, over one row per class of the job, +0
	// where the class does not feed a slot.
	got := make([]float64, slots)
	for base := 0; base < slots; base += Width {
		var acc [Width]float64
		for _, j := range jobs {
			add := make([][Width]float64, 0, len(j.classes))
			for _, c := range j.classes {
				var row [Width]float64
				set := func(s int, v float64) {
					if s >= base && s < base+Width {
						row[s-base] = v
					}
				}
				set(c.sock, c.l3)
				if c.share > 0 {
					for _, u := range j.socks {
						set(nSock+u, c.share)
						if u != c.sock {
							set(2*nSock+pairIndex(nSock, c.sock, u), 2*c.share)
						}
					}
				}
				add = append(add, row)
			}
			Sum(&acc, add, j.runs)
		}
		copy(got[base:], acc[:])
	}
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Fatalf("%d sockets, trial %d: slot %d of %d = %v, per thread %v", nSock, trial, s, slots, got[s], want[s])
		}
	}
}
