//go:build !linux && !darwin

package main

// peakRSSMB reports no peak on platforms without getrusage's ru_maxrss.
func peakRSSMB() (float64, bool) { return 0, false }
