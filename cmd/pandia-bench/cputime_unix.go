//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time all of the process's threads have used. Unlike
// wall time it does not count time the host took the virtual CPU away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
