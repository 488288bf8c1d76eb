//go:build !linux

package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time every thread of this process has used, at
// the microsecond resolution of getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
