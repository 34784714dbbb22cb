//go:build race

package profile

// raceEnabled: the race detector slows Go code several times over but
// leaves assembly kernels at full speed, so wall-clock races between a Go
// path and an assembly one do not mean under -race what they mean in a
// release build.
const raceEnabled = true
