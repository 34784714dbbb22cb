package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"secemb/internal/core"
	"secemb/internal/llm"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

func TestBuildGeneratorAllTechniques(t *testing.T) {
	cfg := llm.Config{Vocab: 64, Dim: 16, Heads: 2, Layers: 1, MaxSeq: 8, Seed: 1}
	tbl := tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rand.New(rand.NewSource(1)))
	want := map[string]core.Technique{
		"lookup": core.Lookup, "scan": core.LinearScan,
		"path": core.PathORAM, "circuit": core.CircuitORAM, "dhe": core.DHE,
		// dual reports DHE: it is the DHE representation plus an ORAM fallback.
		"dual": core.DHE,
	}
	for name, tech := range want {
		g, err := buildGenerator(name, tbl, cfg, 2, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Technique() != tech {
			t.Fatalf("%s built %v", name, g.Technique())
		}
		if g.Dim() != cfg.Dim {
			t.Fatalf("%s dim %d", name, g.Dim())
		}
	}
}

func TestBuildGeneratorUnknownErrors(t *testing.T) {
	cfg := llm.Config{Vocab: 8, Dim: 4, Heads: 1, Layers: 1, MaxSeq: 4, Seed: 1}
	tbl := tensor.New(8, 4)
	if _, err := buildGenerator("nope", tbl, cfg, 1, 4, nil); err == nil {
		t.Fatal("expected error for unknown technique")
	}
}

func TestBuildGeneratorInstrumented(t *testing.T) {
	cfg := llm.Config{Vocab: 64, Dim: 16, Heads: 2, Layers: 1, MaxSeq: 8, Seed: 1}
	tbl := tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rand.New(rand.NewSource(2)))
	reg := obs.NewRegistry()
	g, err := buildGenerator("scan", tbl, cfg, 2, 4, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == `core_generate_total{tech="scan"}` && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-technique generate counter missing: %+v", snap.Counters)
	}
}

// LLMBENCH_RUN_MAIN set to 1 makes the test binary run main instead of its tests, so
// a test can drive the command's own flag handling in a subprocess.
const runMainEnv = "LLMBENCH_RUN_MAIN"

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
		{"-vocab", "0"},
		{"-heads", "3", "-dim", "32"},
		{"-batch", "0", "-coalesce", "4"},
		{"-shards", "0", "-coalesce", "4"},
		{"-shards", "-1", "-coalesce", "4"},
		{"-coalesce", "-1"},
		{"-wait", "-1ms", "-coalesce", "4"},
		{"-layers", "-1"},
		{"-prompt", "-1"},
		{"-prompt", "0"},
		{"-gen", "-1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-autotune", "off", "-vocab", "200", "-dim", "16", "-heads", "2", "-techniques", "scan"}, args...)...)
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
