package backends

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"secemb/internal/core"
	"secemb/internal/dlrm"
	"secemb/internal/serving"
	"secemb/internal/tensor"
)

// newReplicas builds n independent pipelines of the same trained model
// (independent generators: ORAM/DHE state must not be shared).
func newReplicas(t *testing.T, n int, tech core.Technique) ([]*dlrm.Pipeline, dlrm.Config) {
	t.Helper()
	cfg := dlrm.Config{
		DenseDim: 3, EmbDim: 4,
		BottomHidden: []int{4}, TopHidden: []int{4},
		Cardinalities: []int{30, 70}, Seed: 1,
	}
	m := dlrm.New(cfg, dlrm.DHEVariedEmb)
	reps := make([]*dlrm.Pipeline, n)
	for i := range reps {
		reps[i] = dlrm.Build(m, tech, core.Options{Seed: int64(i + 2)})
	}
	return reps, cfg
}

func sampleRequest(cfg dlrm.Config, seed int64) (*tensor.Matrix, [][]uint64) {
	rng := rand.New(rand.NewSource(seed))
	dense := tensor.NewUniform(4, cfg.DenseDim, 1, rng)
	sparse := make([][]uint64, len(cfg.Cardinalities))
	for f, n := range cfg.Cardinalities {
		sparse[f] = make([]uint64, 4)
		for r := range sparse[f] {
			sparse[f][r] = uint64(rng.Intn(n))
		}
	}
	return dense, sparse
}

func dlrmBackends(reps []*dlrm.Pipeline, maxBatch int) []serving.Backend {
	out := make([]serving.Backend, len(reps))
	for i, p := range reps {
		out[i] = NewDLRM(p, maxBatch)
	}
	return out
}

// perRequestGroup is the per-request baseline over backends built with
// cap 1: one shard, one request per backend execution — the deployment
// shape the paper's co-location study measures (§IV-C2) and the control
// arm every coalescing benchmark compares against.
func perRequestGroup(bes []serving.Backend, queueDepth int) *serving.Group {
	return serving.NewGroup(bes, serving.GroupConfig{Shards: 1, QueueDepth: queueDepth})
}

func TestDLRMPoolServesCorrectly(t *testing.T) {
	reps, cfg := newReplicas(t, 2, core.LinearScan)
	pool := perRequestGroup(dlrmBackends(reps, 1), 4)
	defer pool.Close()
	dense, sparse := sampleRequest(cfg, 3)
	want, err := reps[0].Predict(dense, sparse)
	if err != nil {
		t.Fatal(err)
	}
	resp := pool.Do(context.Background(), 0, &DLRMRequest{Dense: dense, Sparse: sparse})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !tensor.AllClose(resp.Value.(*tensor.Matrix), want, 1e-6) {
		t.Fatal("pooled prediction differs from direct prediction")
	}
}

func TestDLRMFusedMatchesPerRequest(t *testing.T) {
	// Fusing three requests into one Predict must produce the same rows as
	// three per-request Predicts — coalescing changes latency, not answers.
	reps, cfg := newReplicas(t, 1, core.DHE)
	be := NewDLRM(reps[0], 0)
	payloads := make([]any, 3)
	wants := make([]*tensor.Matrix, 3)
	for i := range payloads {
		dense, sparse := sampleRequest(cfg, int64(10+i))
		w, err := reps[0].Predict(dense, sparse)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i], wants[i] = &DLRMRequest{Dense: dense, Sparse: sparse}, w
	}
	results, err := be.Execute(payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !tensor.AllClose(r.Value.(*tensor.Matrix), wants[i], 1e-5) {
			t.Fatalf("fused prediction %d differs from per-request prediction", i)
		}
	}
}

func TestDLRMMalformedPayloadFailsIndividually(t *testing.T) {
	reps, cfg := newReplicas(t, 1, core.LinearScan)
	be := NewDLRM(reps[0], 0)
	dense, sparse := sampleRequest(cfg, 4)
	results, err := be.Execute([]any{"not a request", &DLRMRequest{Dense: dense, Sparse: sparse}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("malformed payload must fail")
	}
	if results[1].Err != nil || results[1].Value == nil {
		t.Fatal("well-formed co-batched payload must still be served")
	}
}

func TestDLRMPoolSurvivesOutOfRangeIDs(t *testing.T) {
	reps, cfg := newReplicas(t, 1, core.LinearScan)
	pool := perRequestGroup(dlrmBackends(reps, 1), 2)
	defer pool.Close()

	dense, sparse := sampleRequest(cfg, 9)
	sparse[1][0] = 99999 // far beyond the 70-row table
	resp := pool.Do(context.Background(), 0, &DLRMRequest{Dense: dense, Sparse: sparse})
	if resp.Err == nil {
		t.Fatal("out-of-range id must produce an error response, not a crash")
	}
	if !errors.Is(resp.Err, core.ErrIDOutOfRange) {
		t.Fatalf("error = %v, want ErrIDOutOfRange in the chain", resp.Err)
	}
	dense2, sparse2 := sampleRequest(cfg, 10)
	if r := pool.Do(context.Background(), 0, &DLRMRequest{Dense: dense2, Sparse: sparse2}); r.Err != nil {
		t.Fatalf("valid request after bad one failed: %v", r.Err)
	}
	s := pool.Stats()
	if s.Errors != 1 || s.Served != 1 {
		t.Fatalf("stats after mixed traffic: %+v", s)
	}
}

func TestDLRMGroupConcurrentCoalescedLoad(t *testing.T) {
	reps, cfg := newReplicas(t, 2, core.CircuitORAM)
	g := serving.NewGroup(dlrmBackends(reps, 8), serving.GroupConfig{Shards: 2})
	defer g.Close()
	const requests = 24
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			dense, sparse := sampleRequest(cfg, seed)
			r := g.Do(context.Background(), uint64(seed), &DLRMRequest{Dense: dense, Sparse: sparse})
			if r.Err != nil {
				t.Error(r.Err)
			}
		}(int64(i))
	}
	wg.Wait()
	if s := g.Stats(); s.Served != requests {
		t.Fatalf("served %d, want %d", s.Served, requests)
	}
}

func newDHEGen(t *testing.T, seed int64) core.Generator {
	t.Helper()
	g, err := core.New(core.DHE, 128, 8, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmbeddingFusedMatchesDirect(t *testing.T) {
	be := NewEmbedding(newDHEGen(t, 5), 0)
	results, err := be.Execute([]any{[]uint64{1, 2}, []uint64{3}})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh generator from the same seed gives the reference rows.
	want, err := newDHEGen(t, 5).Generate([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	got0 := results[0].Value.(*tensor.Matrix)
	got1 := results[1].Value.(*tensor.Matrix)
	if got0.Rows != 2 || got1.Rows != 1 {
		t.Fatalf("split shapes wrong: %d and %d rows", got0.Rows, got1.Rows)
	}
	if !tensor.AllClose(got0, tensor.SliceRows(want, 0, 2), 1e-6) ||
		!tensor.AllClose(got1, tensor.SliceRows(want, 2, 3), 1e-6) {
		t.Fatal("fused embedding rows differ from direct generation")
	}
}

func TestEmbeddingResultsSurviveNextExecute(t *testing.T) {
	// The DHE generator's output aliases its inference workspace, valid
	// only until the next Generate — delivered results must be clones.
	be := NewEmbedding(newDHEGen(t, 6), 0)
	first, err := be.Execute([]any{[]uint64{7}})
	if err != nil {
		t.Fatal(err)
	}
	got := first[0].Value.(*tensor.Matrix)
	snapshot := got.Clone()
	if _, err := be.Execute([]any{[]uint64{100}}); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, snapshot, 0) {
		t.Fatal("earlier result mutated by a later Execute — adapter returned an aliasing view")
	}
}

func TestEmbeddingMalformedPayload(t *testing.T) {
	be := NewEmbedding(newDHEGen(t, 7), 0)
	// 999 is past the 128-row table: a bad id is one request's mistake, and
	// a batch-wide error would both fail and inform every tenant fused with it.
	results, err := be.Execute([]any{[]uint64{}, 42, []uint64{3}, []uint64{1, 999}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[1].Err == nil {
		t.Fatal("empty batch and non-[]uint64 payloads must fail individually")
	}
	if !errors.Is(results[3].Err, core.ErrIDOutOfRange) {
		t.Fatalf("out-of-range payload error = %v, want ErrIDOutOfRange", results[3].Err)
	}
	if results[2].Err != nil || results[2].Value.(*tensor.Matrix).Rows != 1 {
		t.Fatal("valid payload must survive malformed co-batch members")
	}
}

func TestMaxBatchDefaults(t *testing.T) {
	reps, _ := newReplicas(t, 1, core.LinearScan)
	if NewDLRM(reps[0], 0).MaxBatch() != DefaultMaxBatch {
		t.Fatal("DLRM default MaxBatch wrong")
	}
	if NewDLRM(reps[0], 3).MaxBatch() != 3 {
		t.Fatal("DLRM explicit MaxBatch wrong")
	}
	be := NewEmbedding(newDHEGen(t, 8), 0)
	if be.MaxBatch() != DefaultMaxBatch || be.Generator() == nil {
		t.Fatal("Embedding MaxBatch/Generator wrong")
	}
}
