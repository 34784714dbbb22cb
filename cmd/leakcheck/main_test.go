package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secemb/internal/cli"
)

func TestRunFullRosterPasses(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rows", "64", "-dim", "4", "-batch", "4", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep fileReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if !rep.OK || len(rep.Results) != 12 {
		t.Fatalf("report OK=%v with %d results, want OK over 12 targets", rep.OK, len(rep.Results))
	}
	var sawLeakyBaseline bool
	for _, r := range rep.Results {
		if !r.Secure && r.Leaky {
			sawLeakyBaseline = true
		}
		if r.Secure && r.Leaky {
			t.Fatalf("%s flagged leaky: %+v", r.Name, r.Divergences)
		}
	}
	if !sawLeakyBaseline {
		t.Fatal("report does not show the lookup baseline leaking — no teeth")
	}
	if !strings.Contains(stdout.String(), "leaky as expected") {
		t.Fatalf("stdout missing baseline verdict:\n%s", stdout.String())
	}
}

func TestRosterSyncAgainstRealTree(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rows", "32", "-dim", "4", "-batch", "2", "-gens", "scan",
		"-src", "../..", "-out", ""}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// The annotated tree carries audit directives for every generator, so a
	// zero count means the scan silently missed them.
	if !strings.Contains(stdout.String(), "all map to dynamic targets") ||
		strings.Contains(stdout.String(), "roster: 0 ") {
		t.Fatalf("roster sync did not see the tree's audit directives:\n%s", stdout.String())
	}
}

func TestRosterSyncGhostTargetFails(t *testing.T) {
	dir := t.TempDir()
	src := `package ghost

// Generate claims dynamic audit coverage that no factory provides.
//
// secemb:secret ids
// secemb:audit phantom
func Generate(ids []uint64) {}
`
	if err := os.WriteFile(filepath.Join(dir, "ghost.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module ghost\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rows", "32", "-dim", "4", "-batch", "2", "-src", dir, "-out", ""},
		&stdout, &stderr)
	if code != 1 {
		t.Fatalf("ghost audit target should exit 1, got %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "phantom") {
		t.Fatalf("stderr does not name the ghost target:\n%s", stderr.String())
	}
}

func TestRunGensFilterAndErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rows", "32", "-dim", "4", "-batch", "2", "-gens", "lookup,scan", "-out", ""},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "trace="); n != 2 {
		t.Fatalf("expected 2 audited targets, stdout:\n%s", stdout.String())
	}
	if code := run([]string{"-gens", "nosuch", "-out", ""}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown target should exit 2, got %d", code)
	}
	if code := run([]string{"-rows", "1", "-out", ""}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad shape should exit 2, got %d", code)
	}
}

// TestBadFlagsExitTwo sweeps every numeric flag at and past its bounds,
// auditing the scan target alone.
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run, "-rows", "32", "-dim", "4", "-batch", "2", "-gens", "scan", "-out", "")
}
