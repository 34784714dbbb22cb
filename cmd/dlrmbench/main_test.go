package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"secemb/internal/core"
	"secemb/internal/dlrm"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

func testModel(t *testing.T) *dlrm.Model {
	t.Helper()
	cfg := dlrm.Config{
		DenseDim: 3, EmbDim: 4,
		BottomHidden: []int{4}, TopHidden: []int{4},
		Cardinalities: []int{20, 50}, Seed: 1,
	}
	return dlrm.New(cfg, dlrm.DHEVariedEmb)
}

func TestBuildPipelineAllTechniques(t *testing.T) {
	m := testModel(t)
	want := map[string]core.Technique{
		"lookup": core.Lookup, "scan": core.LinearScan,
		"path": core.PathORAM, "circuit": core.CircuitORAM, "dhe": core.DHE,
	}
	for name, tech := range want {
		p, err := buildPipeline(m, name, 30, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range p.Gens {
			if g.Technique() != tech {
				t.Fatalf("%s built %v", name, g.Technique())
			}
		}
	}
}

func TestBuildPipelineEmitsMetrics(t *testing.T) {
	// The acceptance path behind `dlrmbench -metrics`: per-technique
	// generate counts and latency percentiles land in the registry.
	m := testModel(t)
	reg := obs.NewRegistry()
	p, err := buildPipeline(m, "hybrid", 30, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	dense := tensor.New(2, m.Cfg.DenseDim)
	sparse := [][]uint64{{1, 2}, {3, 4}}
	if _, err := p.Predict(dense, sparse); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var gotScan, gotDHE, gotHist, gotStage bool
	for _, c := range snap.Counters {
		switch c.Name {
		case `core_generate_total{tech="scan"}`:
			gotScan = c.Value > 0
		case `core_generate_total{tech="dhe"}`:
			gotDHE = c.Value > 0
		}
	}
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "core_generate_ns{") && h.Count > 0 && h.P99 >= h.P50 {
			gotHist = true
		}
		if strings.HasPrefix(h.Name, "dlrm_stage_ns{") && h.Count > 0 {
			gotStage = true
		}
	}
	if !gotScan || !gotDHE || !gotHist || !gotStage {
		t.Fatalf("metrics incomplete: scan=%v dhe=%v hist=%v stage=%v\n%+v",
			gotScan, gotDHE, gotHist, gotStage, snap)
	}
}

func TestBuildPipelineHybridSplitsByThreshold(t *testing.T) {
	m := testModel(t)
	p, err := buildPipeline(m, "hybrid", 30, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Gens[0].Technique() != core.LinearScan { // 20 ≤ 30
		t.Fatal("small table should scan")
	}
	if p.Gens[1].Technique() != core.DHE { // 50 > 30
		t.Fatal("large table should use DHE")
	}
}

func TestBuildPipelineUnknownErrors(t *testing.T) {
	if _, err := buildPipeline(testModel(t), "nope", 1, 1, nil); err == nil {
		t.Fatal("unknown technique built a pipeline")
	}
}

func TestMaxInt(t *testing.T) {
	if maxInt([]int{3, 9, 1}) != 9 {
		t.Fatal("maxInt wrong")
	}
}

// DLRMBENCH_RUN_MAIN set to 1 makes the test binary run main instead of its tests, so
// a test can drive the command's own flag handling in a subprocess.
const runMainEnv = "DLRMBENCH_RUN_MAIN"

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
		{"-batch", "0"},
		{"-shards", "0", "-coalesce", "4"},
		{"-shards", "-2", "-coalesce", "4"},
		{"-clients", "0", "-coalesce", "4"},
		{"-coalesce", "-1"},
		{"-wait", "-1ms", "-coalesce", "4"},
		{"-scale", "0"},
		{"-scale", "-1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-autotune", "off", "-reps", "1", "-techniques", "scan"}, args...)...)
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
