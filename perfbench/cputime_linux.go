package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the calling OS thread's CPU time. Unlike wall time it
// leaves out the time the hypervisor gives the vCPU to other guests (steal
// time, 5–27% of the tuning host's CPU time under load), so simulation
// timings taken with it follow the simulator rather than its neighbours.
// The caller must hold its OS thread (runtime.LockOSThread).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
