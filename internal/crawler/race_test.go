//go:build race

package crawler

// raceEnabled mirrors the -race flag for tests that assert exact
// allocation counts, which the race runtime perturbs.
const raceEnabled = true
