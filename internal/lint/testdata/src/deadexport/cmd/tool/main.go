// Command tool is non-internal code that uses internal names.
package main

import (
	"fmt"

	"deadexport/api"
	"deadexport/internal/core"
	"deadexport/internal/stats"
)

func main() {
	name, median := core.Summarize([]float64{1, 2, 3})
	fmt.Println(name, median, stats.DefaultBins, api.Version)
}
