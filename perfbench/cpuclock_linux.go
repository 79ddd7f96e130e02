package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The kernel's CPU-time clocks. They count nanoseconds a process or
// thread ran, and leave out time the hypervisor gave the CPU to other
// machines (steal). getrusage splits the same time by sampled ticks,
// which is too coarse for one operation.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
