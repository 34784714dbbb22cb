package main

import (
	"strings"
	"testing"

	"secemb/internal/cli"
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

// TestBadFlagsExitTwo sweeps every numeric flag at and past its bounds,
// in serving mode so the at-bound runs drive serveComparison (-coalesce 0,
// its own minimum, drives the direct Predict timing).
func TestBadFlagsExitTwo(t *testing.T) {
	cli.Sweep(t, run, "-autotune", "off", "-reps", "1", "-techniques", "scan", "-coalesce", "4")
}
