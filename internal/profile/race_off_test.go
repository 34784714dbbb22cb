//go:build !race

package profile

// raceEnabled: see race_on_test.go.
const raceEnabled = false
