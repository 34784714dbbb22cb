package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"secemb/internal/core"
)

// QUICKSTART_RUN_MAIN set to 1 makes the test binary run main instead of its
// tests, so a test can read the example's own output in a subprocess.
const runMainEnv = "QUICKSTART_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestQuickstartReport: every stored-table generator matches Lookup's rows,
// and every secure generator's trace hides the queried index. The example
// is the first thing a reader runs, so a "NO" or a "false" there is a bug.
func TestQuickstartReport(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart failed: %v\n%s", err, out)
	}
	rows := map[core.Technique][]string{}
	for _, line := range strings.Split(string(out), "\n") {
		for _, tech := range []core.Technique{core.Lookup, core.LinearScan, core.PathORAM, core.CircuitORAM, core.DHE} {
			if strings.HasPrefix(line, tech.String()+" ") {
				rows[tech] = strings.Fields(line)
			}
		}
	}
	for tech, fields := range rows {
		matches, hides := fields[len(fields)-2], fields[len(fields)-1]
		if tech != core.DHE && matches != "yes" {
			t.Errorf("%v: matches table %q, want yes", tech, matches)
		}
		if tech != core.Lookup && hides != "true" {
			t.Errorf("%v: trace hides index %q, want true", tech, hides)
		}
	}
	if len(rows) != 5 {
		t.Errorf("found %d technique rows, want 5:\n%s", len(rows), out)
	}
}
