package main

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"secemb/internal/cli"
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

// TestBadFlagsExitTwo sweeps every numeric flag at and past its bounds,
// in serving mode so the at-bound runs drive serveDecode (-coalesce 0, its
// own minimum, drives the direct Generate timing). -heads 1 divides every
// -dim the sweep runs; the cross-flag rule is checked on its own.
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run, "-autotune", "off", "-vocab", "200", "-dim", "16", "-heads", "1",
		"-techniques", "scan", "-coalesce", "4")

	var stderr bytes.Buffer
	code := run([]string{"-autotune", "off", "-heads", "3", "-dim", "32"}, io.Discard, &stderr)
	if lines := strings.Split(strings.TrimSpace(stderr.String()), "\n"); code != 2 || len(lines) != 1 ||
		!strings.HasPrefix(lines[0], "-heads") {
		t.Errorf("-heads 3 -dim 32: exit %d, stderr %q; want 2 and one line naming -heads", code, stderr.String())
	}
}
