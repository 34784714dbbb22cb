//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a random share of
// the buffers it is handed, so a pooled path allocates more than it does
// in a release build.
const raceEnabled = true
