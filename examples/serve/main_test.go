package main

import (
	"testing"

	"secemb/internal/cli"
)

// TestBadFlagsExitTwo sweeps every numeric flag at and past its bounds;
// -shards is bounded to [1, replicas], so -1 and 4 no longer reach the
// serving constructor's panic.
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run)
}
