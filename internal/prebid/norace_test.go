//go:build !race

package prebid

// raceEnabled mirrors the -race flag; see race_test.go.
const raceEnabled = false
