// Package replay sums per-agent values in agent order, several sums at
// once. Both solvers keep their state per class of interchangeable agents
// (the predictor's thread classes, the testbed's agent classes) and record
// the agent order as runs of consecutive agents in one class; an
// order-sensitive sum, floating-point addition being not associative, must
// still add one value per agent in that order. Sum replays the runs once
// for up to Width such sums together.
package replay

// Width is the number of sums one replay of the runs advances together:
// every shared total of a job on two sockets (two L3 aggregates, two DRAM
// totals, one link), and every per-socket sum on up to eight sockets.
const Width = 8

// Run is N consecutive agents of class Cls.
type Run struct {
	Cls, N int32
}

// Sum replays the runs in agent order into Width accumulators at once:
// every agent of a run adds its class's addends, acc[i] += add[Cls][i].
// The accumulators are independent sums held in registers, so their
// additions overlap, yet each still receives one addition per agent, in
// agent order, exactly as adding agent by agent. An addend of +0 stands
// for a sum the class does not feed: IEEE addition yields -0 only from two
// -0 operands, so a sum that starts at +0 is never -0, and adding +0
// leaves it bit for bit unchanged.
//
//pandia:noalloc
func Sum(acc *[Width]float64, add [][Width]float64, runs []Run) {
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for _, r := range runs {
		d := &add[r.Cls]
		d0, d1, d2, d3, d4, d5, d6, d7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for m := r.N; m > 0; m-- {
			a0 += d0
			a1 += d1
			a2 += d2
			a3 += d3
			a4 += d4
			a5 += d5
			a6 += d6
			a7 += d7
		}
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = a0, a1, a2, a3, a4, a5, a6, a7
}
