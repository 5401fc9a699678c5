//go:build race

package prebid

// raceEnabled mirrors the -race flag for tests that assert exact
// allocation counts, which the race runtime perturbs.
const raceEnabled = true
