// Package core uses names of package stats and declares an interface a
// stats type satisfies.
package core

import "deadexport/internal/stats"

// Namer is declared here and implemented by stats.Box.
type Namer interface {
	Name() string
}

// Summarize reads stats.Box through the interface and its fields.
func Summarize(xs []float64) (string, float64) {
	b := stats.Box{Median: stats.Mean(xs)}
	var n Namer = b
	return n.Name(), b.Median
}

// Legacy has no use: reported, and reported only when core is among the
// packages under analysis.
func Legacy() {} // want deadexport "func Legacy"
