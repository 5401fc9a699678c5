// Command tool is non-internal code that uses internal names.
package main

import (
	"fmt"

	"deadexport"
	"deadexport/api"
	"deadexport/internal/core"
	"deadexport/internal/stats"
)

func main() {
	name, median := core.Summarize([]float64{1, 2, 3})
	var c deadexport.Consumer = deadexport.Open()
	fmt.Println(name, median, stats.DefaultBins, api.Version, c.Consume(1))
}

// Helper is exported by a main package, which nothing can import: never
// reported.
func Helper() {}
