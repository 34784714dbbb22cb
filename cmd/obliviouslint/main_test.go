package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secemb/internal/analysis"
	"secemb/internal/cli"
)

// leakyArgs lints the deliberately leaky fixture, named by its explicit
// testdata path (./... skips testdata).
var leakyArgs = []string{"-C", "../..", "./internal/analysis/testdata/src/leaky"}

// tempModule writes src as a one-file module "name" and returns its
// directory, for linting with -C.
func tempModule(t *testing.T, name, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module "+name+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The acceptance gate: the driver must exit non-zero on the deliberately
// leaky fixture and name both the position and the violated check.
func TestLeakyFixtureFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run(leakyArgs, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"leaky.go:14:", "obliviouslint/index",
		"leaky.go:22:", "obliviouslint/branch",
		"leaky.go:34:", "obliviouslint/loop",
		"leaky.go:49:", "obliviouslint/call",
		"leaky.go:60:", "obliviouslint/index",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCleanDirPasses(t *testing.T) {
	dir := tempModule(t, "clean", `package clean

// secemb:secret id return
func Select(a, b uint64, id uint64) uint64 {
	m := -(id & 1)
	return (a & m) | (b &^ m)
}
`)
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// A package whose only findings are waived exits zero — waivers are the
// sanctioned escape hatch, not a failure.
func TestWaivedOnlyPasses(t *testing.T) {
	dir := tempModule(t, "waivedonly", `package waivedonly

// secemb:secret id
func Guard(id uint64, n uint64) {
	//lint:allow obliviouslint/branch bounds abort reveals only validity
	if id >= n {
		panic("out of range")
	}
}
`)
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", dir, "-v"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "1 waived") || !strings.Contains(out, "(waived:") {
		t.Errorf("verbose waived output missing:\n%s", out)
	}
}

// -vet folds the strict-vet analyzers into the same run and exit code.
func TestVetFlag(t *testing.T) {
	dir := tempModule(t, "vetdemo", `package vetdemo

func Resolve(xs []int) int {
	total := 0
	for _, x := range xs {
		if x > 0 {
			total := x * 2
			_ = total
		}
	}
	return total
}
`)
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("without -vet: exit code = %d, want 0\n%s", code, stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-vet"}, &stdout, &stderr); code != 1 {
		t.Fatalf("with -vet: exit code = %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "vet/shadow") {
		t.Errorf("vet finding missing:\n%s", stdout.String())
	}
}

// Usage errors (bad flags, no module, a package that does not exist)
// exit 2, distinct from the findings exit 1.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-C", t.TempDir()},
		{"-C", "../..", "./internal/analysis/testdata/src/does-not-exist"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
		}
	}
}

func TestJSONReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr strings.Builder
	if code := run(append([]string{"-json", out}, leakyArgs...), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ok": false`, `"obliviouslint/index"`, `"findings"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q:\n%s", want, data)
		}
	}
}

// An unwritable -json path is an operational error (exit 2), reported on
// stderr — not silently swallowed into the findings exit code.
func TestJSONReportUnwritable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "no-such-subdir", "report.json")
	var stdout, stderr strings.Builder
	if code := run(append([]string{"-json", out}, leakyArgs...), &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "obliviouslint:") {
		t.Errorf("stderr missing error: %q", stderr.String())
	}
}

// -sarif writes a SARIF 2.1.0 log that passes the structural validator
// (the offline stand-in for the schema check) and carries the findings.
func TestSARIFReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.sarif")
	var stdout, stderr strings.Builder
	if code := run(append([]string{"-sarif", out}, leakyArgs...), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.ValidateSARIF(data); err != nil {
		t.Fatalf("SARIF validation: %v", err)
	}
	for _, want := range []string{`"version": "2.1.0"`, `"obliviouslint/index"`, `"startLine"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("sarif missing %q", want)
		}
	}
}

// -summaries dumps the interprocedural taint summaries: the unannotated
// helper's flow-through and conditional leak sites must be visible.
func TestSummariesDump(t *testing.T) {
	dir := tempModule(t, "sums", `package sums

func gather(t []float32, i int) float32 {
	return t[i]
}
`)
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", dir, "-summaries"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"gather", `"i": result=true leaks=1`, "obliviouslint/index"} {
		if !strings.Contains(out, want) {
			t.Errorf("summaries dump missing %q:\n%s", want, out)
		}
	}
}

// The annotated tree itself must lint clean — zero unwaived findings — and
// clean under the strict-vet analyzers too. This is the static analogue of
// leakcheck's all-targets-pass invariant.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list")
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-C", "../..", "-vet", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestBadFlagsExitTwo sweeps every numeric flag (none today) at and past
// its bounds, linting this command's own package.
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run)
}
