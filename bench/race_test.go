//go:build race

package main

// The race detector makes sync.Pool drop items at random, so pooled
// encoder state allocates again.
func init() { raceEnabled = true }
