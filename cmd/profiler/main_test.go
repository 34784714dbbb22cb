package main

import (
	"testing"

	"secemb/internal/cli"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 8,32")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 8, 32}
	if len(got) != len(want) {
		t.Fatalf("len %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseInts[%d]=%d, want %d", i, got[i], want[i])
		}
	}
}

func TestParseIntsRejectsGarbage(t *testing.T) {
	for _, s := range []string{"1,x", "", "8,0", "-4"} {
		if got, err := parseInts(s); err == nil {
			t.Errorf("parseInts(%q) = %v, want an error", s, got)
		}
	}
}

// TestBadFlagsExitTwo sweeps every numeric flag at and past its bounds,
// profiling one batch size on one thread.
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run, "-reps", "1", "-batches", "8", "-threads", "1")
}
