//go:build !linux

package main

// The CPU and memory meters read Linux interfaces; elsewhere the
// benchmark still runs and reports them as 0.
func cpuMillis() float64  { return 0 }
func peakRSSMiB() float64 { return 0 }
