package llm

import (
	"math"
	"math/rand"
	"testing"

	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/nn"
	"secemb/internal/tensor"
)

// tinyModel is a miniature trainable on CPU.
func tinyModel(kind TokKind, seed int64) *Model {
	return New(Config{Vocab: 97, Dim: 32, Heads: 2, Layers: 2, MaxSeq: 64, Seed: seed}, kind)
}

func mustPrefill(t *testing.T, s *Session, prompts [][]int) *tensor.Matrix {
	t.Helper()
	out, err := s.Prefill(prompts)
	if err != nil {
		t.Fatalf("Prefill: %v", err)
	}
	return out
}

func mustDecode(t *testing.T, s *Session, tokens []int) *tensor.Matrix {
	t.Helper()
	out, err := s.Decode(tokens)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return out
}

func TestForwardSeqShape(t *testing.T) {
	for _, kind := range []TokKind{TableTok, DHETok} {
		m := tinyModel(kind, 1)
		h := m.forwardSeq([]int{1, 2, 3, 4})
		if h.Rows != 4 || h.Cols != m.Cfg.Dim {
			t.Fatalf("hidden shape %dx%d", h.Rows, h.Cols)
		}
		logits := m.Logits(h)
		if logits.Rows != 4 || logits.Cols != 97 {
			t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
		}
	}
}

func TestCausality(t *testing.T) {
	// Changing a later token must not change earlier positions' logits.
	m := tinyModel(TableTok, 2)
	a := m.Logits(m.forwardSeq([]int{5, 6, 7, 8}))
	b := m.Logits(m.forwardSeq([]int{5, 6, 7, 90}))
	for pos := 0; pos < 3; pos++ {
		for c := 0; c < a.Cols; c++ {
			if a.At(pos, c) != b.At(pos, c) {
				t.Fatalf("position %d logit %d changed with a future token", pos, c)
			}
		}
	}
	// The final position must change.
	if tensor.AllClose(tensor.SliceRows(a, 3, 4), tensor.SliceRows(b, 3, 4), 1e-9) {
		t.Fatal("final logits insensitive to final token")
	}
}

func TestTrainSeqGradientSpotCheck(t *testing.T) {
	m := New(Config{Vocab: 19, Dim: 8, Heads: 2, Layers: 1, MaxSeq: 8, Seed: 3}, TableTok)
	tokens := []int{1, 5, 9, 2}
	targets := []int{5, 9, 2, 7}
	m.ZeroGrads()
	m.TrainSeq(tokens, targets)

	rng := rand.New(rand.NewSource(4))
	params := m.Params()
	for _, p := range params {
		for trial := 0; trial < 2; trial++ {
			i := rng.Intn(len(p.Value.Data))
			const h = 1e-2
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := m.LossSeq(tokens, targets)
			p.Value.Data[i] = orig - h
			down := m.LossSeq(tokens, targets)
			p.Value.Data[i] = orig
			want := (up - down) / (2 * h)
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > 6e-2*(1+math.Abs(want)) {
				t.Fatalf("param %s grad[%d]: got %v want %v", p.Name, i, got, want)
			}
		}
	}
}

func TestTiedHeadSharesStorage(t *testing.T) {
	m := tinyModel(TableTok, 5)
	w, ok := core.TableWeights(m.Tok)
	if !ok {
		t.Fatal("table weights missing")
	}
	if &m.Head.Value.Data[0] != &w.Data[0] {
		t.Fatal("tied head must alias the token table")
	}
	md := tinyModel(DHETok, 5)
	if _, ok := core.TableWeights(md.Tok); ok {
		t.Fatal("DHE model should not expose table weights")
	}
	if md.Head == nil || md.Head.Value.Rows != 97 {
		t.Fatal("DHE model needs its own head")
	}
}

// trainTiny runs a short finetuning loop and returns (before, after)
// perplexity on held-out text.
func trainTiny(t *testing.T, kind TokKind, steps int) (float64, float64) {
	t.Helper()
	cfg := Config{Vocab: 61, Dim: 24, Heads: 2, Layers: 2, MaxSeq: 16, Seed: 7}
	m := New(cfg, kind)
	corpus := data.NewCorpus(cfg.Vocab, 8)
	rng := rand.New(rand.NewSource(9))
	train := corpus.Generate(6000, rng)
	test := corpus.Generate(600, rng)
	ins, tgts := data.Batches(train, 12)
	tins, ttgts := data.Batches(test, 12)

	before := m.Perplexity(tins, ttgts)
	opt := nn.NewAdam(3e-3)
	idx := 0
	for s := 0; s < steps; s++ {
		m.ZeroGrads()
		for b := 0; b < 4; b++ {
			m.TrainSeq(ins[idx%len(ins)], tgts[idx%len(ins)])
			idx++
		}
		opt.Step(m.Params())
	}
	after := m.Perplexity(tins, ttgts)
	return before, after
}

func TestTrainingImprovesPerplexityTable(t *testing.T) {
	before, after := trainTiny(t, TableTok, 60)
	if after >= before*0.8 {
		t.Fatalf("table model perplexity barely moved: %.2f → %.2f", before, after)
	}
}

func TestTrainingImprovesPerplexityDHE(t *testing.T) {
	before, after := trainTiny(t, DHETok, 60)
	if after >= before*0.8 {
		t.Fatalf("DHE model perplexity barely moved: %.2f → %.2f", before, after)
	}
}

func TestPipelineMatchesModel(t *testing.T) {
	m := tinyModel(TableTok, 11)
	w, _ := core.TableWeights(m.Tok)
	p := FromModel(m, core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}))
	prompt := []int{3, 14, 15, 9, 2}
	s := p.NewSession(1)
	got := mustPrefill(t, s, [][]int{prompt})
	hidden := m.forwardSeq(prompt)
	want := m.Logits(tensor.SliceRows(hidden, len(prompt)-1, len(prompt)))
	if !tensor.AllClose(got, want, 1e-3) {
		t.Fatalf("prefill logits differ from model by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestDecodeMatchesFullForward(t *testing.T) {
	// Incremental KV-cache decoding must equal re-running the full
	// sequence through the trainable path.
	m := tinyModel(TableTok, 12)
	w, _ := core.TableWeights(m.Tok)
	p := FromModel(m, core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}))
	prompt := []int{7, 8, 9}
	s := p.NewSession(1)
	s.Prefill([][]int{prompt})
	next := []int{20}
	got := mustDecode(t, s, next)

	full := append(append([]int{}, prompt...), next...)
	hidden := m.forwardSeq(full)
	want := m.Logits(tensor.SliceRows(hidden, len(full)-1, len(full)))
	if !tensor.AllClose(got, want, 1e-3) {
		t.Fatalf("decode logits differ by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestGenerateDeterministicAcrossGenerators(t *testing.T) {
	// A table-trained model generates identical text whether its token
	// embeddings come from lookup, linear scan, or Circuit ORAM.
	m := tinyModel(TableTok, 13)
	w, _ := core.TableWeights(m.Tok)
	prompts := [][]int{{5, 6, 7}, {10, 11, 12}}
	var ref [][]int
	for i, gen := range []core.Generator{
		core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}),
		core.MustNew(core.LinearScan, w.Rows, w.Cols, core.Options{Table: w}),
		core.MustNew(core.CircuitORAM, w.Rows, w.Cols, core.Options{Table: w, Seed: 14}),
	} {
		p := FromModel(m, gen)
		_, out, err := p.Generate(prompts, 6)
		if err != nil {
			t.Fatalf("generator %d: %v", i, err)
		}
		if i == 0 {
			ref = out
			continue
		}
		for s := range ref {
			for j := range ref[s] {
				if out[s][j] != ref[s][j] {
					t.Fatalf("generator %d diverged at seq %d pos %d", i, s, j)
				}
			}
		}
	}
}

func TestSessionTimingRecorded(t *testing.T) {
	m := tinyModel(TableTok, 15)
	w, _ := core.TableWeights(m.Tok)
	p := FromModel(m, core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}))
	s, outs, err := p.Generate([][]int{{1, 2, 3, 4}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.PrefillTime <= 0 {
		t.Fatal("prefill time not recorded")
	}
	if len(s.DecodeTimes) != 4 || s.MeanDecodeTime() <= 0 {
		t.Fatalf("decode times: %v", s.DecodeTimes)
	}
	if len(outs[0]) != 5 {
		t.Fatalf("generated %d tokens, want 5", len(outs[0]))
	}
}

func TestGreedyNextUsesArgmax(t *testing.T) {
	logits := tensor.FromSlice(2, 3, []float32{0, 5, 1, 9, 2, 3})
	next := GreedyNext(logits)
	if next[0] != 1 || next[1] != 0 {
		t.Fatalf("GreedyNext=%v", next)
	}
}

func TestPrefillErrors(t *testing.T) {
	m := tinyModel(TableTok, 16)
	w, _ := core.TableWeights(m.Tok)
	p := FromModel(m, core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}))
	s := p.NewSession(1)
	mustPrefill(t, s, [][]int{{1}})
	if _, err := s.Prefill([][]int{{2}}); err == nil {
		t.Fatal("double prefill must error")
	}
	// Wrong batch and over-long prompts are rejected too.
	if _, err := p.NewSession(1).Prefill([][]int{{1}, {2}}); err == nil {
		t.Fatal("batch mismatch must error")
	}
	long := make([]int, m.Cfg.MaxSeq+1)
	if _, err := p.NewSession(1).Prefill([][]int{long}); err == nil {
		t.Fatal("over-long prompt must error")
	}
}

func TestNumBytesTiedVsUntied(t *testing.T) {
	mt := tinyModel(TableTok, 17)
	md := tinyModel(DHETok, 17)
	if mt.NumBytes() <= 0 || md.NumBytes() <= 0 {
		t.Fatal("NumBytes must be positive")
	}
	// NumBytes sums Params: the tied head is the table, so it must appear
	// once; the untied head is a vocab×dim matrix of its own next to the DHE.
	for _, m := range []*Model{mt, md} {
		n := 0
		for _, p := range m.Params() {
			if p.Value == m.Head.Value {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("tied=%v: head counted %d times, want once", m.tied, n)
		}
	}
}

func TestRandomPipelineRuns(t *testing.T) {
	cfg := Config{Vocab: 300, Dim: 16, Heads: 2, Layers: 1, MaxSeq: 16, Seed: 18}
	tbl := tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rand.New(rand.NewSource(1)))
	p := NewRandomPipeline(cfg, core.MustNew(core.Lookup, tbl.Rows, tbl.Cols, core.Options{Table: tbl}))
	s, outs, err := p.Generate([][]int{{1, 2}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs[0]) != 3 || s.PrefillTime <= 0 {
		t.Fatal("random pipeline generation failed")
	}
}

func TestMultiStepDecodeMatchesFullForward(t *testing.T) {
	// Several incremental decode steps must match re-running the growing
	// sequence through the trainable path at every step.
	m := tinyModel(TableTok, 52)
	w, _ := core.TableWeights(m.Tok)
	p := FromModel(m, core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}))
	prompt := []int{2, 9, 4}
	s := p.NewSession(1)
	s.Prefill([][]int{prompt})
	seq := append([]int{}, prompt...)
	next := 11
	for step := 0; step < 4; step++ {
		got := mustDecode(t, s, []int{next})
		seq = append(seq, next)
		hidden := m.forwardSeq(seq)
		want := m.Logits(tensor.SliceRows(hidden, len(seq)-1, len(seq)))
		if !tensor.AllClose(got, want, 2e-3) {
			t.Fatalf("step %d: decode differs by %v", step, tensor.MaxAbsDiff(got, want))
		}
		next = (next*7 + 3) % m.Cfg.Vocab
	}
}

func TestBatchedPrefillPerSequenceConsistency(t *testing.T) {
	// A 3-sequence prefill must give each sequence exactly what a solo
	// prefill gives it (no cross-sequence contamination).
	m := tinyModel(TableTok, 53)
	w, _ := core.TableWeights(m.Tok)
	p := FromModel(m, core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}))
	prompts := [][]int{{1, 2}, {30, 31, 32}, {60}}
	s := p.NewSession(3)
	batched := mustPrefill(t, s, prompts)
	for b, prompt := range prompts {
		solo := p.NewSession(1)
		want := mustPrefill(t, solo, [][]int{prompt})
		if !tensor.AllClose(tensor.SliceRows(batched, b, b+1), want, 1e-4) {
			t.Fatalf("sequence %d differs between batched and solo prefill", b)
		}
	}
}

// TestDecodeRejectsWithoutAdvancing: a Decode that must be refused (one
// sequence already at MaxSeq) leaves every sequence where it was — nothing
// is embedded and no cache or length moves before the whole call is valid.
func TestDecodeRejectsWithoutAdvancing(t *testing.T) {
	m := tinyModel(TableTok, 54)
	w, _ := core.TableWeights(m.Tok)
	p := FromModel(m, core.MustNew(core.Lookup, w.Rows, w.Cols, core.Options{Table: w}))
	s := p.NewSession(2)
	mustPrefill(t, s, [][]int{{1, 2}, make([]int, m.Cfg.MaxSeq)})
	if _, err := s.Decode([]int{3, 4}); err == nil {
		t.Fatal("decode past MaxSeq must error")
	}
	if s.lens[0] != 2 || s.lens[1] != m.Cfg.MaxSeq || len(s.DecodeTimes) != 0 {
		t.Fatalf("rejected Decode advanced the session: lens=%v, %d decode times", s.lens, len(s.DecodeTimes))
	}
}
