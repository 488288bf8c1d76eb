package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// processCPU is the CPU time every thread of this process has used, in
// nanoseconds. The kernel leaves out time the hypervisor stole, so on a
// shared host it moves with the work done, not with the neighbours.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
