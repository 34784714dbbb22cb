// End-to-end integration tests: the complete train → deploy → serve →
// attack stories that cut across every package.
package secemb

import (
	"math/rand"
	"testing"

	"secemb/internal/cache"
	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/dhe"
	"secemb/internal/dlrm"
	"secemb/internal/llm"
	"secemb/internal/memtrace"
	"secemb/internal/nn"
	"secemb/internal/profile"
	"secemb/internal/tensor"
)

// TestDLRMEndToEndStory: train an all-DHE mini-DLRM on planted-truth CTR
// traffic, deploy it under every protection scheme plus the profiled
// hybrid, and verify all deployments predict identically and beat chance.
func TestDLRMEndToEndStory(t *testing.T) {
	cards := data.ScaleCardinalities(data.KaggleCardinalities, 2e-5)[:6]
	cfg := dlrm.Config{
		DenseDim: 13, EmbDim: 8,
		BottomHidden: []int{16}, TopHidden: []int{16},
		Cardinalities: cards, Seed: 1,
	}
	reps := make([]core.TrainableRep, len(cards))
	rng := rand.New(rand.NewSource(2))
	for i, n := range cards {
		reps[i] = core.NewDHERep(dhe.New(dhe.Config{K: 32, Hidden: []int{16}, Dim: 8, Seed: int64(i)}, rng), n)
	}
	model := dlrm.NewWithReps(cfg, reps)
	ds := data.NewCTR(cfg.DenseDim, cards, 3)
	model.Train(ds, 120, 64, nn.NewAdam(0.005), 4)
	acc := model.Accuracy(ds, 6, 128, 5)
	if acc < 0.55 {
		t.Fatalf("trained accuracy %.2f barely above chance", acc)
	}

	b := ds.Sample(8, rand.New(rand.NewSource(6)))
	ref, err := dlrm.Build(model, core.DHE, core.Options{}).Predict(b.Dense, b.Sparse)
	if err != nil {
		t.Fatal(err)
	}

	// Every secure deployment of the same trained model must agree.
	for _, tech := range []core.Technique{core.LinearScan, core.PathORAM, core.CircuitORAM} {
		got, err := dlrm.Build(model, tech, core.Options{Seed: 7}).Predict(b.Dense, b.Sparse)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(got, ref, 1e-5) {
			t.Fatalf("%v deployment diverged by %v", tech, tensor.MaxAbsDiff(got, ref))
		}
	}
	// Hybrid allocation from a real host profile.
	db := profile.BuildDB(cfg.EmbDim, profile.Varied, []int{8}, []int{1}, []int{16, 128, 1024}, 2, 8)
	techs := db.Allocate(cards, profile.ExecConfig{Batch: 8, Threads: 1})
	hyb := dlrm.BuildHybrid(model, techs, core.Options{Seed: 9})
	hybGot, err := hyb.Predict(b.Dense, b.Sparse)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(hybGot, ref, 1e-5) {
		t.Fatal("hybrid deployment diverged")
	}
	for _, tech := range techs {
		if !tech.Secure() {
			t.Fatalf("hybrid allocated insecure technique %v", tech)
		}
	}
}

// TestLLMDualStory: a DHE-trained mini-LLM served through the §IV-D dual
// generator generates the same text as through pure DHE — the ORAM side
// is materialized from the same DHE — while dispatching decode steps to
// the ORAM.
func TestLLMDualStory(t *testing.T) {
	cfg := llm.Config{Vocab: 73, Dim: 16, Heads: 2, Layers: 1, MaxSeq: 16, Seed: 10}
	model := llm.New(cfg, llm.DHETok)
	d, ok := core.RepDHE(model.Tok)
	if !ok {
		t.Fatal("DHE rep missing")
	}
	prompts := [][]int{{3, 4, 5, 6}}

	pureDHE := llm.FromModel(model, core.MustNew(core.DHE, cfg.Vocab, d.Dim, core.Options{DHE: d}))
	_, want, err := pureDHE.Generate(prompts, 5)
	if err != nil {
		t.Fatal(err)
	}

	tracer := memtrace.NewEnabled()
	dual := core.NewDual(core.MustNew(core.DHE, cfg.Vocab, d.Dim, core.Options{DHE: d, Tracer: tracer}), 1,
		core.Options{Seed: 11, Tracer: tracer})
	pDual := llm.FromModel(model, dual)
	tracer.Reset()
	_, got, err := pDual.Generate(prompts, 5)
	if err != nil {
		t.Fatal(err)
	}

	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("dual generation diverged at position %d", i)
		}
	}
	// The trace must show both sides used: DHE for the 4-token prefill,
	// the ORAM for the 1-token decode steps.
	regions := map[string]bool{}
	for _, a := range tracer.Snapshot() {
		regions[a.Region] = true
	}
	if !regions["dhe"] || !regions["circuit.tree"] {
		t.Fatalf("dual did not exercise both representations: %v", regions)
	}
}

// TestAttackStoryAcrossProtections: the cache attack succeeds against the
// direct lookup and fails (uniform measurements) against the protected
// victim, end to end.
func TestAttackStoryAcrossProtections(t *testing.T) {
	v := &cache.Victim{Base: 0, NumRows: 512, LinesPerRow: 4, Cache: cache.New(cache.DefaultConfig())}
	a := cache.NewAttacker(v, 25)
	hits := 0
	for secret := 0; secret < 25; secret++ {
		if a.Run(secret, 10, 0, v.Lookup, nil).Guess() == secret {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("lookup attack succeeded only %d/25 times", hits)
	}
	m1 := a.Run(3, 10, 0, v.LinearScan, nil)
	m2 := a.Run(21, 10, 0, v.LinearScan, nil)
	for i := range m1.Latency {
		if m1.Latency[i] != m2.Latency[i] {
			t.Fatal("protected measurements depend on the secret")
		}
	}
}

// TestAllocationIndependentOfInputs is the §V-B security argument for the
// hybrid scheme, checked mechanically: Allocate's output is a pure
// function of table sizes and the execution configuration.
func TestAllocationIndependentOfInputs(t *testing.T) {
	db := &profile.DB{Dim: 16, Thresholds: map[profile.ExecConfig]int{
		{Batch: 32, Threads: 1}: 1000,
	}}
	sizes := []int{10, 5000}
	a := db.Allocate(sizes, profile.ExecConfig{Batch: 32, Threads: 1})
	for i := 0; i < 100; i++ { // no hidden state, no randomness
		b := db.Allocate(sizes, profile.ExecConfig{Batch: 32, Threads: 1})
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("allocation is not deterministic")
			}
		}
	}
}
