//go:build wallclock

package kernels

import (
	"runtime"
	"testing"
)

// TestMeasureScalingParallelFraction fits Amdahl's law to real wall-clock
// runs of EP and bounds the parallel fraction. It depends on the host
// actually scaling — a loaded shared machine can push the fit below any
// fixed bound — so it runs only on request:
//
//	go test -tags wallclock ./internal/kernels
func TestMeasureScalingParallelFraction(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2+ CPUs")
	}
	e := &EP{Pairs: 1 << 21, Seed: 2}
	ms, err := MeasureScaling(e, []int{1, 2, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FitParallelFraction(ms)
	if err != nil {
		t.Fatal(err)
	}
	// EP is embarrassingly parallel: expect a high parallel fraction on
	// any multi-core host. Keep the bound loose for noisy CI machines.
	if p < 0.5 {
		t.Errorf("EP fitted parallel fraction = %.2f, want > 0.5", p)
	}
}
