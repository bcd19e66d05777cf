//go:build !unix

package main

import "time"

var processStart = time.Now()

// cpuTime falls back to wall time where the process CPU clock is not
// available.
func cpuTime() time.Duration { return time.Since(processStart) }
