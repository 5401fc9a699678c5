//go:build !race

package crawler

// raceEnabled mirrors the -race flag; see race_test.go.
const raceEnabled = false
