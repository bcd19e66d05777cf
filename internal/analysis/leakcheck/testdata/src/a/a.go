package a

// Fixture for leakcheck: goroutine literals must tie their exit to a
// WaitGroup, a context, or a channel close; untied goroutines doing channel
// work in loops (or spinning forever) are flagged.

import (
	"context"
	"sync"
)

func leakyFeeder(n int) chan int {
	idx := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			idx <- i // want `goroutine may leak: channel send inside a loop`
		}
		close(idx)
	}()
	return idx
}

func leakyDrain(ch chan int) {
	go func() {
		for {
			v := <-ch // want `goroutine may leak: channel receive inside a loop`
			_ = v
		}
	}()
}

func spinner() {
	go func() {
		for { // want `goroutine may leak: infinite for loop with no return or break`
		}
	}()
}

func tiedWaitGroup(n int) {
	var wg sync.WaitGroup
	ch := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			ch <- i // ok: Done ties the goroutine to the spawner's Wait
		}
	}()
	go func() {
		for range ch {
		}
	}()
	wg.Wait()
	close(ch)
}

func tiedContext(ctx context.Context, ch chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
}

func tiedRange(ch chan int) {
	go func() {
		for v := range ch { // ok: close(ch) releases the loop
			_ = v
		}
	}()
}

func straightLine(ch chan int) {
	go func() {
		ch <- 1 // ok: single send outside a loop is the result-handoff idiom
	}()
}

func suppressed(ch chan int) {
	go func() {
		for {
			ch <- 1 //leakcheck:ok
		}
	}()
}

func namedCallee(f func()) {
	go f() // not analysed: body unknown, covered by the runtime leaktest helper
}

// proseSuppression: a comment that only quotes the directive suppresses
// nothing.
func proseSuppression(ch chan int) {
	go func() {
		for {
			ch <- 1 // not a leakcheck:ok directive // want `goroutine may leak: channel send inside a loop`
		}
	}()
}
