package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// PROFILER_RUN_MAIN set to 1 makes the test binary run main instead of its tests, so
// a test can drive the command's own flag handling in a subprocess.
const runMainEnv = "PROFILER_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitTwo: a bad numeric flag is a usage error — exit 2 and
// one stderr line naming the flag. A panic exits 2 as well, so the stderr
// line is what tells the two apart.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-reps", "0"},
		{"-dim", "0"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: exit %v, want 2", args, err)
		}
		lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		if len(lines) != 1 || strings.Contains(lines[0], "panic:") || !strings.HasPrefix(lines[0], args[0]) {
			t.Errorf("%q: stderr %q, want one line naming %s", args, stderr.String(), args[0])
		}
	}
}
