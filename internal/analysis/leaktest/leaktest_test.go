package leaktest

import (
	"strings"
	"testing"
)

// recordingTB captures Errorf calls so the helper can be tested on both the
// clean and the leaking path without failing this test.
type recordingTB struct {
	testing.TB
	errors []string
}

func (r *recordingTB) Helper() {}
func (r *recordingTB) Errorf(format string, args ...any) {
	r.errors = append(r.errors, format)
}

func TestNoLeak(t *testing.T) {
	rec := &recordingTB{}
	check := Check(rec)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	check()
	if len(rec.errors) != 0 {
		t.Errorf("clean test reported %d leaks", len(rec.errors))
	}
}

func TestDetectsLeak(t *testing.T) {
	rec := &recordingTB{}
	check := Check(rec)
	release := make(chan struct{})
	go func() { <-release }()
	check()
	close(release)
	if len(rec.errors) == 0 {
		t.Fatal("blocked goroutine was not reported as leaked")
	}
	if !strings.Contains(rec.errors[0], "leaked goroutine") {
		t.Errorf("unexpected error format %q", rec.errors[0])
	}
}
