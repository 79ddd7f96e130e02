//go:build !linux

package main

import (
	"syscall"
	"time"
)

const (
	clockProcessCPUTime = iota
	clockThreadCPUTime
)

// cpuClock falls back to the process's getrusage time for both clocks
// where the kernel's per-thread CPU clock is not reachable.
func cpuClock(uintptr) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
