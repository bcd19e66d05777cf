// Package leaktest is a goleak-style helper that asserts a test leaves no
// goroutines behind. It is the module's only goroutine-leak check: the tests
// of both worker pools, the parallel sweep in internal/core and
// parallelEachN in internal/eval, run under it on their error paths too.
//
// Usage:
//
//	func TestSomething(t *testing.T) {
//		defer leaktest.Check(t)()
//		...
//	}
//
// Check snapshots the running goroutines; the returned function re-snapshots
// at test end, polling with backoff (goroutine exits race with the test
// body), and reports the stacks of any non-system goroutines that were not
// running at the start.
package leaktest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// maxWait bounds how long Check waits for stragglers to exit before calling
// them leaks.
const maxWait = 2 * time.Second

// Check snapshots current goroutines and returns the assertion to defer.
func Check(t testing.TB) func() {
	t.Helper()
	before := snapshot()
	return func() {
		t.Helper()
		deadline := time.Now().Add(maxWait)
		var leaked []goroutine
		for delay := time.Millisecond; ; delay *= 2 {
			leaked = leakedSince(before)
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			if delay > 100*time.Millisecond {
				delay = 100 * time.Millisecond
			}
			time.Sleep(delay)
		}
		for _, g := range leaked {
			t.Errorf("leaked goroutine:\n%s", g.stack)
		}
	}
}

// goroutine is one parsed entry of a full runtime.Stack dump.
type goroutine struct {
	id    string
	stack string
}

// snapshot returns the IDs of all currently running goroutines.
func snapshot() map[string]bool {
	ids := make(map[string]bool)
	for _, g := range parseStacks() {
		ids[g.id] = true
	}
	return ids
}

// leakedSince returns the interesting goroutines not present in before.
func leakedSince(before map[string]bool) []goroutine {
	var out []goroutine
	for _, g := range parseStacks() {
		if before[g.id] || system(g.stack) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// parseStacks splits a full runtime.Stack dump into per-goroutine records.
func parseStacks() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []goroutine
	for _, chunk := range strings.Split(string(buf), "\n\n") {
		if !strings.HasPrefix(chunk, "goroutine ") {
			continue
		}
		header := chunk
		if i := strings.IndexByte(chunk, '\n'); i >= 0 {
			header = chunk[:i]
		}
		var id int
		if _, err := fmt.Sscanf(header, "goroutine %d ", &id); err != nil {
			continue
		}
		out = append(out, goroutine{id: fmt.Sprint(id), stack: chunk})
	}
	return out
}

// system reports whether a goroutine belongs to the runtime or the testing
// framework rather than to the code under test.
func system(stack string) bool {
	// The goroutine running this very check.
	if strings.Contains(stack, "leaktest.parseStacks") {
		return true
	}
	for _, marker := range []string{
		"created by runtime",
		"created by testing.",
		"testing.(*T).Run",
		"testing.RunTests",
		"testing.Main",
		"signal.signal_recv",
		"runtime.MHeap_Scavenger",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
