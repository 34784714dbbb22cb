package backends

import (
	"math/rand"
	"testing"

	"secemb/internal/core"
	"secemb/internal/llm"
	"secemb/internal/tensor"
)

func testLLMPipeline(t *testing.T) *llm.Pipeline {
	t.Helper()
	cfg := llm.Config{Vocab: 200, Dim: 16, Heads: 2, Layers: 1, MaxSeq: 16, Seed: 31}
	tbl := tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rand.New(rand.NewSource(3)))
	return llm.NewRandomPipeline(cfg, core.MustNew(core.Lookup, tbl.Rows, tbl.Cols, core.Options{Table: tbl}))
}

func TestLLMPrefillThenDecodeThroughAdapters(t *testing.T) {
	p := testLLMPipeline(t)
	decode := NewLLMDecode(p, 0)
	if decode.pipe != p {
		t.Fatal("the adapter must wrap the pipeline it was given")
	}

	// Prefill is per session, directly on the pinned replica (as llmbench
	// does); only decode steps travel through the serving stack.
	sA, sB := p.NewSession(1), p.NewSession(1)
	for s, prompt := range map[*llm.Session][]int{sA: {1, 2, 3}, sB: {7}} {
		if _, err := s.Prefill([][]int{prompt}); err != nil {
			t.Fatal(err)
		}
	}

	results, err := decode.Execute([]any{
		&LLMDecodeRequest{Session: sA, Token: 4},
		&LLMDecodeRequest{Session: sB, Token: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		logits := r.Value.(*tensor.Matrix)
		if logits.Rows != 1 || logits.Cols != p.Cfg.Vocab {
			t.Fatalf("decode result %d has shape %dx%d", i, logits.Rows, logits.Cols)
		}
	}
}

func TestLLMAdapterMalformedPayloads(t *testing.T) {
	p := testLLMPipeline(t)
	s := p.NewSession(1)
	if _, err := s.Prefill([][]int{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	results, err := NewLLMDecode(p, 0).Execute([]any{
		42,
		&LLMDecodeRequest{Session: nil, Token: 1},
		&LLMDecodeRequest{Session: s, Token: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || results[1].Err == nil {
		t.Fatal("malformed decode payloads must fail individually")
	}
	if results[2].Err != nil {
		t.Fatal("valid decode must survive malformed co-batch members")
	}
}
