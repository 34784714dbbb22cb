package llm

import (
	"math/rand"
	"strings"
	"testing"

	"secemb/internal/core"
	"secemb/internal/tensor"
)

// twinPipelines builds two identical pipelines (same config seed, same
// embedding table) so fused execution on one can be checked against
// sequential execution on the other.
func twinPipelines(t *testing.T) (*Pipeline, *Pipeline) {
	t.Helper()
	cfg := Config{Vocab: 300, Dim: 16, Heads: 2, Layers: 2, MaxSeq: 16, Seed: 21}
	tbl := tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rand.New(rand.NewSource(2)))
	a := NewRandomPipeline(cfg, core.MustNew(core.Lookup, tbl.Rows, tbl.Cols, core.Options{Table: tbl}))
	b := NewRandomPipeline(cfg, func() core.Generator {
		c := tbl.Clone()
		return core.MustNew(core.Lookup, c.Rows, c.Cols, core.Options{Table: c})
	}())
	return a, b
}

func prefillOne(t *testing.T, p *Pipeline, prompt []int) *Session {
	t.Helper()
	s := p.NewSession(1)
	if _, err := s.Prefill([][]int{prompt}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDecodeFusedMatchesSequentialDecode(t *testing.T) {
	// Two independently owned sessions advanced by one fused call must see
	// exactly the logits each would see decoding alone.
	fusedP, refP := twinPipelines(t)
	prompts := [][]int{{1, 2, 3}, {9, 8}}
	tokens := []int{5, 7}

	sA := prefillOne(t, fusedP, prompts[0])
	sB := prefillOne(t, fusedP, prompts[1])
	outs, err := DecodeFused([]*Session{sA, sB}, tokens)
	if err != nil {
		t.Fatal(err)
	}

	for i, prompt := range prompts {
		ref := prefillOne(t, refP, prompt)
		want, err := ref.Decode([]int{tokens[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(outs[i], want, 1e-5) {
			t.Fatalf("fused decode logits for session %d differ from sequential decode", i)
		}
	}
	// The fused step advanced each session's cache: a further per-session
	// decode must agree with the reference's next step too.
	ref := prefillOne(t, refP, prompts[0])
	if _, err := ref.Decode([]int{tokens[0]}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Decode([]int{11})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFused([]*Session{sA}, []int{11})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got[0], want, 1e-5) {
		t.Fatal("KV cache state diverged after a fused decode step")
	}
	if len(sA.DecodeTimes) != 2 {
		t.Fatalf("fused decodes recorded %d decode times, want 2", len(sA.DecodeTimes))
	}
}

func TestFusedValidation(t *testing.T) {
	p1, p2 := twinPipelines(t)
	wantErr := func(name, frag string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("%s: error = %v, want mention of %q", name, err, frag)
		}
	}
	_, err := DecodeFused(nil, nil)
	wantErr("empty", "at least one session", err)

	_, err = DecodeFused([]*Session{p1.NewSession(1), p2.NewSession(1)}, []int{1, 2})
	wantErr("mixed pipelines", "different pipeline", err)

	_, err = DecodeFused([]*Session{p1.NewSession(2)}, []int{1})
	wantErr("multi-sequence", "single-sequence", err)

	_, err = DecodeFused([]*Session{p1.NewSession(1)}, []int{1})
	wantErr("not prefilled", "not prefilled", err)

	s := prefillOne(t, p1, []int{1})
	_, err = DecodeFused([]*Session{s}, []int{1, 2})
	wantErr("count mismatch", "tokens for", err)

	_, err = s.Prefill([][]int{{1}})
	wantErr("double prefill", "already prefilled", err)

	_, err = p1.NewSession(1).Prefill([][]int{{}})
	wantErr("empty prompt", "length 0", err)

	_, err = p1.NewSession(1).Prefill([][]int{{1}, {2}})
	wantErr("prompt count", "prompts for", err)

	// Decode past MaxSeq must be refused per session.
	full := prefillOne(t, p1, make([]int, p1.Cfg.MaxSeq))
	_, err = DecodeFused([]*Session{full}, []int{1})
	wantErr("max seq", "MaxSeq", err)
}
