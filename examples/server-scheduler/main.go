// Server scheduler: the paper's deployment vision (§1: parallel workloads
// inside a multi-user server; §8: multiple workloads sharing a machine).
//
// A stream of analytics jobs — joins, graph analytics, solvers — arrives at
// a simulated X5-2. Each job was profiled once, offline, with the six-run
// methodology. The online scheduler places every arrival by jointly
// predicting candidate placements against everything already running, with
// admission control on predicted resource over-subscription. Ground-truth
// co-runs check the chosen placements.
//
// Run with: go run ./examples/server-scheduler
package main

import (
	"fmt"
	"log"

	"pandia"
	"pandia/internal/scheduler"
	"pandia/internal/simhw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("server: ")

	sys, err := pandia.NewSystem("x5-2")
	if err != nil {
		log.Fatal(err)
	}

	// Offline: profile the job types once.
	jobTypes := []string{"NPO", "PageRank", "MD", "CG"}
	profiles := map[string]*pandia.WorkloadDescription{}
	specs := map[string]pandia.WorkloadSpec{}
	for _, name := range jobTypes {
		b, err := pandia.BenchmarkByName(name)
		if err != nil {
			log.Fatal(err)
		}
		prof, err := sys.Profile(b.Truth)
		if err != nil {
			log.Fatal(err)
		}
		profiles[name] = &prof.Workload
		specs[name] = b.Truth
	}

	sched, err := scheduler.New(sys.Description(), scheduler.Config{
		AdmissionThreshold: 1.5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Online: jobs arrive and the scheduler places each one. Most ask for a
	// thread count; s1 asks for none, so the scheduler sizes it too, trying
	// 1, 2, 4, ... threads up to what is free. (A lone job sized that way
	// would take the whole machine, since nothing else competes for it.)
	arrivals := []arrival{
		{"q1", "NPO", 36},
		{"g1", "PageRank", 12},
		{"sim1", "MD", 18},
		{"q2", "NPO", 4},
		{"s1", "CG", 0},
	}
	fmt.Printf("machine: %s (%d contexts)\n\n", sys.Machine().Name, sys.Machine().TotalContexts())
	for _, a := range arrivals {
		asg, err := sched.Submit(scheduler.Job{ID: a.id, Workload: profiles[a.kind], Threads: a.threads})
		if err != nil {
			fmt.Printf("%-5s (%-8s) REJECTED: %v\n", a.id, a.kind, err)
			continue
		}
		fmt.Printf("%-5s (%-8s) -> %2d threads via %-12s predicted %6.2fs (%.1fx)\n",
			a.id, a.kind, len(asg.Placement), asg.Strategy,
			asg.Time, asg.Speedup)
	}

	// Monitoring: the joint prediction of the running mix.
	co, err := sched.Predict()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrunning mix: %d jobs, worst combined resource load %.0f%% of %v\n",
		len(co.Predictions), 100*co.WorstOversubscription, co.WorstResource)
	fmt.Printf("free contexts remaining: %d\n\n", len(sched.FreeContexts()))

	// Ground truth: run each job with every other job's threads present.
	fmt.Println("ground-truth co-runs vs the scheduler's predictions:")
	assignments := sched.Assignments()
	for i, a := range assignments {
		var interference []simhw.PlacedStressor
		for k, other := range assignments {
			if k == i {
				continue
			}
			for _, c := range other.Placement {
				interference = append(interference, simhw.PlacedStressor{
					Ctx: c, Truth: specs[kindOf(other.Job.ID, arrivals)],
				})
			}
		}
		res, err := sys.Testbed().Run(simhw.RunConfig{
			Workload:  specs[kindOf(a.Job.ID, arrivals)],
			Placement: a.Placement,
			Stressors: interference,
		})
		if err != nil {
			log.Fatal(err)
		}
		pred := co.Predictions[i]
		fmt.Printf("  %-5s predicted %6.2fs  measured %6.2fs  (%+.1f%%)\n",
			a.Job.ID, pred.Time, res.Time, 100*(pred.Time-res.Time)/res.Time)
	}

	// A job finishes; its contexts free up for the next arrival.
	if err := sched.Remove("q1"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter q1 completes: %d contexts free\n", len(sched.FreeContexts()))
}

// arrival is one job of the stream: its ID, its job type, and the thread
// count it asks for (0 lets the scheduler choose).
type arrival struct {
	id, kind string
	threads  int
}

func kindOf(id string, arrivals []arrival) string {
	for _, a := range arrivals {
		if a.id == id {
			return a.kind
		}
	}
	return ""
}
