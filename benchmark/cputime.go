package main

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time this process has used so far, all threads,
// user plus system. Every timing in the benchmark is a difference of two such
// readings rather than of two wall-clock readings: on a shared box the
// hypervisor takes the CPU away for seconds at a time (wall time of identical
// work was measured to swing by 3×), and stolen time is not charged to the
// process. Collector threads are included, so garbage-collection work counts.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error()) // cannot fail with valid arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
