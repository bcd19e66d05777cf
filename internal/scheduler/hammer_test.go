package scheduler

import (
	"fmt"
	"sync"
	"testing"

	"pandia/internal/analysis/leaktest"
)

// TestLifecycleHammer interleaves every mutating entry point from
// concurrent goroutines. Run with -race it proves the whole lifecycle
// surface shares one mutex discipline: submissions, removals, cordons,
// drains, failures, rebalancing, and applied moves never tear the
// occupancy/health state, and CheckConsistency holds throughout.
func TestLifecycleHammer(t *testing.T) {
	defer leaktest.Check(t)()
	s, err := New(testMD(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 25
	var wg sync.WaitGroup

	// Submit/remove churn across two job families.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("g%d-%d", g, i%4)
				job := computeJob(id)
				if g == 1 {
					job = memoryJob(id)
				}
				job.Threads = 2
				if _, err := s.Submit(job); err == nil && i%3 == 0 {
					_ = s.Remove(id)
				}
			}
		}(g)
	}

	// Cordon/uncordon and fail/uncordon cycles on both sockets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			sock := i % 2
			if _, err := s.CordonSocket(sock); err != nil {
				t.Error(err)
			}
			if _, err := s.UncordonSocket(sock); err != nil {
				t.Error(err)
			}
		}
	}()

	// Drains with small retry budgets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.DrainSocket(i%2, DrainOptions{MaxRetries: 1}); err != nil {
				t.Error(err)
			}
			if _, err := s.UncordonSocket(i % 2); err != nil {
				t.Error(err)
			}
		}
	}()

	// Rebalance advice and (often stale) applies.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rep, err := s.Rebalance(0.0)
			if err != nil || rep == nil || len(rep.Moves) == 0 {
				continue
			}
			// Stale applies must fail cleanly (conflict), never corrupt.
			_ = s.ApplyMove(rep.Moves[0])
		}
	}()

	// Readers: health, free contexts, every returned assignment's placement
	// (read without the scheduler lock, as /debug/health does), consistency.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			_ = s.HealthCounts()
			_ = s.FreeContexts()
			for _, a := range s.Assignments() {
				_ = a.Placement.String()
			}
			if err := s.CheckConsistency(); err != nil {
				t.Error(err)
			}
		}
	}()

	wg.Wait()
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
