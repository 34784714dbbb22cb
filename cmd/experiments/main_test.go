package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secemb/internal/cli"
)

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "fig4\n") {
		t.Fatalf("-list: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestOnlyResolvesBeforeOut: an unknown -only exits 2 without creating
// -out, so a typo cannot empty a pinned report; a known one writes the
// report to stdout and -out alike.
func TestOnlyResolvesBeforeOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nope", "-out", out}, &stdout, &stderr); code != 2 {
		t.Fatalf("-only nope: exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("-only nope created -out: %v", err)
	}

	stdout.Reset()
	if code := run([]string{"-only", "fig4", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-only fig4: exit %d (stderr %q)", code, stderr.String())
	}
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) == 0 || string(written) != stdout.String() {
		t.Fatalf("-out holds %d bytes, stdout %d; want the same non-empty report", len(written), stdout.Len())
	}
}

// TestBadFlagsExitTwo sweeps every numeric flag (none today) at and past
// its bounds, running one experiment.
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run, "-only", "fig4")
}
