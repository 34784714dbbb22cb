//go:build !race

package wire

// raceEnabled: see race_on_test.go.
const raceEnabled = false
