// Package stats exercises the deadexport analyzer: each exported name is
// either used by non-test code of the module (clean) or not (reported).
package stats

import "fmt"

// Mean is used by another package of the module: clean.
func Mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// Sum is used only inside its own package: clean.
func Sum(xs []float64) float64 { return sum(xs) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// total calls Sum, so Sum has a non-test use (even though nothing
// calls total).
func total(xs []float64) float64 { return Sum(xs) }

// StdDev has no use at all: reported.
func StdDev(xs []float64) float64 { return 0 } // want deadexport "func StdDev"

// Spearman is called only from stats_test.go: reported.
func Spearman(xs, ys []float64) float64 { return 0 } // want deadexport "func Spearman"

// Fib calls only itself; a use inside its own declaration does not
// count: reported.
func Fib(n int) int { // want deadexport "func Fib"
	if n < 2 {
		return n
	}
	return Fib(n-1) + Fib(n-2)
}

// MaxBins is a dead const: reported.
const MaxBins = 64 // want deadexport "const MaxBins"

// DefaultBins is read by cmd/tool: clean.
const DefaultBins = 10

// Registry is a dead var: reported.
var Registry = map[string]int{} // want deadexport "var Registry"

// Histogram is a dead type: reported. Its methods mention it, which does
// not count as a use.
type Histogram struct { // want deadexport "type Histogram"
	Counts []int // want deadexport "field Histogram.Counts"
}

// Merge mentions Histogram only inside a method of Histogram: reported.
func (h *Histogram) Merge(o *Histogram) *Histogram { return h } // want deadexport "method Histogram.Merge"

// Box is used by package core. Its Median is read there (clean); its
// IQR is never read (reported).
type Box struct {
	Median float64
	IQR    float64 // want deadexport "field Box.IQR"
	// Wire is part of a JSON format: clean.
	Wire int `json:"wire"`
	// Hidden is tagged out of the format, so it needs a use: reported.
	Hidden int `json:"-"` // want deadexport "field Box.Hidden"
}

// String satisfies fmt.Stringer: clean.
func (b Box) String() string { return fmt.Sprint(b.Median) }

// Name satisfies core.Namer, an interface of the module: clean.
func (b Box) Name() string { return "box" }

// Span has no use and no interface declares it: reported.
func (b Box) Span() float64 { return 0 } // want deadexport "method Box.Span"

// Seam is driven only by tests, and says so: clean.
//
//hbvet:allow deadexport test seam: the stats tests drive it
func Seam() int { return 1 }
