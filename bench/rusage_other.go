//go:build !unix

package main

// Without getrusage the CPU and RSS metrics read 0; the benchmark's numbers
// are only meaningful on the unix machines it is run on, but the tree keeps
// building everywhere.
func cpuSeconds() float64 { return 0 }
func peakRSSMB() float64  { return 0 }
