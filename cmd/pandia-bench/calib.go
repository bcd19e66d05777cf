package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark's hosts are shared virtual machines. Measuring process CPU
// time (cpuTime) removes the time the host takes the virtual CPUs away, but
// the execution speed itself also drifts by 15-25% over minutes, and no run
// length averages that out. Every reported time is therefore scaled by a
// host-speed factor measured in the same run, every calibrationEvery, by a
// fixed single-threaded kernel that shares no code with Pandia:
//
//	scaled time = measured time × referenceKernel / kernel time now
//
// A change to Pandia moves the scaled numbers exactly as it moves the raw
// ones; a change in the host's speed moves the kernel too and cancels out.
// referenceKernel is the kernel's median time on the host the baseline in
// README.md was recorded on, so there scaled and raw numbers agree.
const (
	referenceKernel  = 460 * time.Microsecond
	calibrationEvery = 250 * time.Millisecond
	kernelReps       = 3
	kernelSize       = 1 << 12
)

// calibrator measures the host-speed factor with the kernel.
type calibrator struct {
	x    []float64
	m    map[int]float64
	sink float64
	// factor is referenceKernel over the latest kernel time: multiply a
	// measured duration by it to get the scaled duration.
	factor float64
	next   time.Time
}

func newCalibrator() *calibrator {
	c := &calibrator{x: make([]float64, kernelSize), m: make(map[int]float64, kernelSize)}
	c.measure()
	return c
}

// kernel does a fixed amount of float math, sorting and map work in
// buffers allocated once, so it neither allocates nor depends on the heap
// the benchmarked program leaves behind.
func (c *calibrator) kernel() {
	for i := range c.x {
		c.x[i] = math.Sin(float64(i)*0.37) * math.Sqrt(float64(i)+1)
	}
	sort.Float64s(c.x)
	for i, v := range c.x {
		c.m[i*7919%2039] += v
	}
	for i := 0; i < 2039; i++ {
		c.sink += c.m[i]
	}
}

// measure times the kernel kernelReps times and sets the factor from the
// median.
func (c *calibrator) measure() {
	var ts [kernelReps]float64
	for r := range ts {
		t0 := time.Now()
		c.kernel()
		ts[r] = time.Since(t0).Seconds()
	}
	sort.Float64s(ts[:])
	c.factor = referenceKernel.Seconds() / ts[kernelReps/2]
	c.next = time.Now().Add(calibrationEvery)
}

// refresh re-measures the factor when calibrationEvery has passed. Call it
// between operations, outside any timed interval.
func (c *calibrator) refresh() {
	if time.Now().After(c.next) {
		c.measure()
	}
}

// scale converts a measured duration in seconds to the reference host.
func (c *calibrator) scale(seconds float64) float64 { return seconds * c.factor }
