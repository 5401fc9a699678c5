//go:build !race

package dataset

// raceEnabled mirrors the -race flag; see race_test.go.
const raceEnabled = false
