package llm

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"secemb/internal/core"
	"secemb/internal/nn"
	"secemb/internal/oblivious"
	"secemb/internal/tensor"
)

// Pipeline is the inference-time transformer: trained (or random, for
// latency studies) trunk weights, KV caches, and a pluggable
// core.Generator for token embeddings. Prefill embeds the whole prompt
// batch in one embedding-generation call (batch = requests × prompt
// length) while each decode step embeds one token per request — the
// batch-size asymmetry behind the paper's prefill-vs-decode findings
// (Figure 5, Figure 15's table).
type Pipeline struct {
	Cfg    Config
	Gen    core.Generator
	Pos    *tensor.Matrix // MaxSeq×Dim positional table (public indices)
	Blocks []*block
	LNF    *nn.LayerNorm
	Head   *tensor.Matrix // Vocab×Dim
}

// FromModel assembles a pipeline reusing a trained model's trunk, with
// token embeddings served by gen.
func FromModel(m *Model, gen core.Generator) *Pipeline {
	if gen.Dim() != m.Cfg.Dim {
		panic(fmt.Sprintf("llm: generator dim %d != model dim %d", gen.Dim(), m.Cfg.Dim))
	}
	return &Pipeline{
		Cfg:    m.Cfg,
		Gen:    gen,
		Pos:    m.Pos.Weight.Value,
		Blocks: m.Blocks,
		LNF:    m.LNF,
		Head:   m.Head.Value,
	}
}

// NewRandomPipeline builds an untrained pipeline of the given shape —
// sufficient for latency experiments, where only shapes matter.
func NewRandomPipeline(cfg Config, gen core.Generator) *Pipeline {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Pipeline{
		Cfg:  cfg,
		Gen:  gen,
		Pos:  tensor.NewGaussian(cfg.MaxSeq, cfg.Dim, 0.02, rng),
		LNF:  nn.NewLayerNorm(cfg.Dim, rng),
		Head: tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rng),
	}
	for i := 0; i < cfg.Layers; i++ {
		p.Blocks = append(p.Blocks, newBlock(cfg, rng))
	}
	return p
}

// Session holds the KV caches for one batch of generation requests.
type Session struct {
	p    *Pipeline
	kv   [][]kvCache // [layer][sequence]
	lens []int       // tokens cached so far, per sequence

	// Timing of the last Prefill and of each Decode step.
	PrefillTime time.Duration
	DecodeTimes []time.Duration
}

type kvCache struct {
	k, v *tensor.Matrix // MaxSeq×Dim
}

// NewSession prepares caches for `batch` concurrent sequences.
func (p *Pipeline) NewSession(batch int) *Session {
	s := &Session{p: p, lens: make([]int, batch)}
	s.kv = make([][]kvCache, p.Cfg.Layers)
	for l := range s.kv {
		s.kv[l] = make([]kvCache, batch)
		for b := range s.kv[l] {
			s.kv[l][b] = kvCache{
				k: tensor.New(p.Cfg.MaxSeq, p.Cfg.Dim),
				v: tensor.New(p.Cfg.MaxSeq, p.Cfg.Dim),
			}
		}
	}
	return s
}

// seq names one sequence of a session. Every entry point advances a list
// of them: a batched call lists all sequences of one session, a fused call
// (fused.go) sequence 0 of many sessions.
type seq struct {
	s *Session
	b int
}

func (s *Session) seqs() []seq {
	out := make([]seq, len(s.lens))
	for b := range out {
		out[b] = seq{s, b}
	}
	return out
}

// Prefill processes the prompt of every sequence and returns the logits of
// each sequence's final position (batch×Vocab). The token embeddings of
// *all* prompts are generated in a single Generate call, so the embedding
// batch is Σ prompt lengths (e.g. 256×B for the paper's setup).
func (s *Session) Prefill(prompts [][]int) (*tensor.Matrix, error) {
	return s.p.stack(s.p.prefill(s.seqs(), prompts))
}

// Decode appends one token per sequence and returns next-token logits
// (batch×Vocab). The embedding-generation batch equals the request batch.
func (s *Session) Decode(tokens []int) (*tensor.Matrix, error) {
	return s.p.stack(s.p.decode(s.seqs(), tokens))
}

// stack gathers per-sequence 1×Vocab logits into one batch×Vocab matrix.
func (p *Pipeline) stack(logits []*tensor.Matrix, err error) (*tensor.Matrix, error) {
	if err != nil {
		return nil, err
	}
	out := tensor.New(len(logits), p.Cfg.Vocab)
	for i, l := range logits {
		copy(out.Row(i), l.Row(0))
	}
	return out, nil
}

// prefill runs prompts[i] through the fresh sequence seqs[i]. The call's
// total time lands in PrefillTime of every session involved.
func (p *Pipeline) prefill(seqs []seq, prompts [][]int) ([]*tensor.Matrix, error) {
	start := time.Now()
	if len(prompts) != len(seqs) {
		return nil, fmt.Errorf("llm: %d prompts for %d sequences", len(prompts), len(seqs))
	}
	for i, toks := range prompts {
		if q := seqs[i]; q.s.lens[q.b] != 0 {
			return nil, fmt.Errorf("llm: sequence %d already prefilled", i)
		}
		if len(toks) == 0 || len(toks) > p.Cfg.MaxSeq {
			return nil, fmt.Errorf("llm: prompt %d length %d out of (0, %d]", i, len(toks), p.Cfg.MaxSeq)
		}
	}
	out, err := p.advance(seqs, prompts)
	if err != nil {
		return nil, fmt.Errorf("llm: prefill embedding: %w", err)
	}
	d := time.Since(start)
	for _, q := range seqs {
		q.s.PrefillTime = d
	}
	return out, nil
}

// decode appends tokens[i] to the prefilled sequence seqs[i]. The call's
// total time is appended to DecodeTimes of every session involved.
func (p *Pipeline) decode(seqs []seq, tokens []int) ([]*tensor.Matrix, error) {
	start := time.Now()
	if len(tokens) != len(seqs) {
		return nil, fmt.Errorf("llm: %d tokens for %d sequences", len(tokens), len(seqs))
	}
	chunks := make([][]int, len(tokens))
	for i, q := range seqs {
		if q.s.lens[q.b] == 0 {
			return nil, fmt.Errorf("llm: sequence %d not prefilled", i)
		}
		if q.s.lens[q.b] >= p.Cfg.MaxSeq {
			return nil, fmt.Errorf("llm: sequence %d exceeded MaxSeq %d", i, p.Cfg.MaxSeq)
		}
		chunks[i] = tokens[i : i+1]
	}
	out, err := p.advance(seqs, chunks)
	if err != nil {
		return nil, fmt.Errorf("llm: decode embedding: %w", err)
	}
	d := time.Since(start)
	for i, q := range seqs {
		if i == 0 || q.s != seqs[i-1].s { // one session's sequences are adjacent
			q.s.DecodeTimes = append(q.s.DecodeTimes, d)
		}
	}
	return out, nil
}

// advance embeds every chunk's tokens in ONE secure Generate call (batch =
// Σ chunk lengths), runs chunks[i] through seqs[i]'s caches from its
// current length, and returns each sequence's final-position logits
// (1×Vocab each). Callers validate first: the only error left is the
// generator's, returned before any cache or length has moved.
func (p *Pipeline) advance(seqs []seq, chunks [][]int) ([]*tensor.Matrix, error) {
	n := 0
	for _, toks := range chunks {
		n += len(toks)
	}
	ids := make([]uint64, 0, n)
	for _, toks := range chunks {
		for _, t := range toks {
			ids = append(ids, uint64(t))
		}
	}
	emb, err := p.Gen.Generate(ids)
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Matrix, len(seqs))
	off := 0
	for i, q := range seqs {
		T, prev := len(chunks[i]), q.s.lens[q.b]
		x := tensor.SliceRows(emb, off, off+T)
		off += T
		for r := 0; r < T; r++ {
			row := x.Row(r)
			pos := p.Pos.Row(prev + r)
			for c := range row {
				row[c] += pos[c]
			}
		}
		hidden := p.forwardChunk(q.s, q.b, x)
		last := tensor.SliceRows(hidden, T-1, T)
		out[i] = tensor.MatMulTransB(last, p.Head, 0)
		q.s.lens[q.b] = prev + T
	}
	return out, nil
}

// forwardChunk runs Tnew new embedded tokens of sequence b through the
// trunk using (and extending) the KV caches. Returns Tnew×Dim hidden
// states after the final LayerNorm.
func (p *Pipeline) forwardChunk(s *Session, b int, x *tensor.Matrix) *tensor.Matrix {
	prev := s.lens[b]
	for li, blk := range p.Blocks {
		x = p.blockInfer(s.kv[li][b], prev, blk, x)
	}
	return p.LNF.Forward(x)
}

// blockInfer is block.forward with cached K/V attention.
func (p *Pipeline) blockInfer(cache kvCache, prev int, blk *block, x *tensor.Matrix) *tensor.Matrix {
	h := blk.ln1.Forward(x)
	attnOut := p.attnInfer(cache, prev, blk.attn, h)
	x2 := tensor.Add(x, attnOut)
	f := blk.fc2.Forward(blk.act.Forward(blk.fc1.Forward(blk.ln2.Forward(x2))))
	return tensor.Add(x2, f)
}

// attnInfer computes causal attention for Tnew new tokens against
// prev+Tnew cached positions.
func (p *Pipeline) attnInfer(cache kvCache, prev int, a *attention, x *tensor.Matrix) *tensor.Matrix {
	Tnew := x.Rows
	dim := p.Cfg.Dim
	hd := p.Cfg.headDim()
	qkv := a.qkv.Forward(x)
	// Append new K/V rows to the cache.
	for i := 0; i < Tnew; i++ {
		copy(cache.k.Row(prev+i), qkv.Row(i)[dim:2*dim])
		copy(cache.v.Row(prev+i), qkv.Row(i)[2*dim:3*dim])
	}
	concat := tensor.New(Tnew, dim)
	scale := 1 / math.Sqrt(float64(hd))
	for h := 0; h < p.Cfg.Heads; h++ {
		for i := 0; i < Tnew; i++ {
			q := qkv.Row(i)[h*hd : (h+1)*hd]
			limit := prev + i + 1 // causal: attend up to self
			scores := make([]float64, limit)
			maxS := math.Inf(-1)
			for j := 0; j < limit; j++ {
				kRow := cache.k.Row(j)[h*hd : (h+1)*hd]
				var dot float64
				for c := 0; c < hd; c++ {
					dot += float64(q[c]) * float64(kRow[c])
				}
				dot *= scale
				scores[j] = dot
				if dot > maxS {
					maxS = dot
				}
			}
			var sum float64
			for j := range scores {
				scores[j] = math.Exp(scores[j] - maxS)
				sum += scores[j]
			}
			dst := concat.Row(i)[h*hd : (h+1)*hd]
			for j := 0; j < limit; j++ {
				w := float32(scores[j] / sum)
				vRow := cache.v.Row(j)[h*hd : (h+1)*hd]
				for c := 0; c < hd; c++ {
					dst[c] += w * vRow[c]
				}
			}
		}
	}
	return a.proj.Forward(concat)
}

// GreedyNext returns the most probable token per row using the oblivious
// argmax — the secure greedy sampling of §V-C.
func GreedyNext(logits *tensor.Matrix) []int {
	out := make([]int, logits.Rows)
	for r := range out {
		out[r] = oblivious.ArgMax(logits.Row(r))
	}
	return out
}

// SampleNext draws the next token per row from the top-k softmax at the
// given temperature, using the oblivious top-k/cumulative-select kernels —
// the sampling analogue of the paper's oblivious greedy argmax. rng
// supplies the (non-secret) randomness; temperature ≤ 0 degrades to
// greedy.
func SampleNext(logits *tensor.Matrix, k int, temperature float64, rng *rand.Rand) []int {
	out := make([]int, logits.Rows)
	for r := range out {
		out[r] = oblivious.SampleTopK(logits.Row(r), k, temperature, rng.Float64())
	}
	return out
}

// Generate runs prefill plus `steps` greedy decode steps and returns the
// generated tokens per sequence. Timing lands in the session fields
// (TTFT = PrefillTime; TBT = mean of DecodeTimes), matching the metrics of
// §VI-A3.
func (p *Pipeline) Generate(prompts [][]int, steps int) (*Session, [][]int, error) {
	return p.generate(prompts, steps, GreedyNext)
}

// GenerateSampled is Generate with top-k/temperature sampling instead of
// greedy decoding.
func (p *Pipeline) GenerateSampled(prompts [][]int, steps, k int, temperature float64, rng *rand.Rand) (*Session, [][]int, error) {
	return p.generate(prompts, steps, func(logits *tensor.Matrix) []int {
		return SampleNext(logits, k, temperature, rng)
	})
}

// generate prefills, then alternates pick (logits → next token per
// sequence) with Decode until each sequence has max(steps, 1) tokens.
func (p *Pipeline) generate(prompts [][]int, steps int, pick func(*tensor.Matrix) []int) (*Session, [][]int, error) {
	s := p.NewSession(len(prompts))
	logits, err := s.Prefill(prompts)
	if err != nil {
		return nil, nil, err
	}
	outs := make([][]int, len(prompts))
	for step := 1; ; step++ {
		next := pick(logits)
		for i, t := range next {
			outs[i] = append(outs[i], t)
		}
		if step >= steps {
			return s, outs, nil
		}
		if logits, err = s.Decode(next); err != nil {
			return nil, nil, err
		}
	}
}

// MeanDecodeTime is the paper's TBT (time between tokens).
func (s *Session) MeanDecodeTime() time.Duration {
	if len(s.DecodeTimes) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range s.DecodeTimes {
		total += d
	}
	return total / time.Duration(len(s.DecodeTimes))
}
