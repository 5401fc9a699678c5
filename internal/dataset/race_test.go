//go:build race

package dataset

// raceEnabled mirrors the -race flag for tests that assert exact
// allocation counts, which race instrumentation changes.
const raceEnabled = true
