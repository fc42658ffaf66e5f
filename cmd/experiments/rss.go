//go:build linux || darwin

package main

import (
	"runtime"
	"syscall"
)

// peakRSSMB returns the process's peak resident set size in MB
// (getrusage's ru_maxrss: KiB on Linux, bytes on Darwin).
func peakRSSMB() (float64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024
	}
	return kib / 1024, true
}
