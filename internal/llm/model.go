package llm

import (
	"fmt"
	"math/rand"

	"secemb/internal/core"
	"secemb/internal/dhe"
	"secemb/internal/nn"
	"secemb/internal/tensor"
)

// TokKind selects the trainable token-embedding representation.
type TokKind int

const (
	// TableTok trains a conventional token-embedding table (with the
	// output head tied to it, as GPT-2 does).
	TableTok TokKind = iota
	// DHETok trains a DHE token embedding (the head is a separate
	// vocab×dim matrix: DHE has no table to tie to).
	DHETok
)

// Model is the trainable transformer.
type Model struct {
	Cfg    Config
	Tok    core.TrainableRep
	Pos    *nn.Embedding
	Blocks []*block
	LNF    *nn.LayerNorm
	Head   *nn.Param // vocab×dim; aliases the token table when tied
	tied   bool
}

// New builds a model with the chosen token representation.
func New(cfg Config, kind TokKind) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg: cfg,
		Pos: nn.NewEmbedding(cfg.MaxSeq, cfg.Dim, rng),
		LNF: nn.NewLayerNorm(cfg.Dim, rng),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, newBlock(cfg, rng))
	}
	switch kind {
	case TableTok:
		m.Tok = core.NewTableRep(cfg.Vocab, cfg.Dim, rng)
		// Weight tying: the head IS the token table ("the output FC layer
		// head typically shares weights with the token embedding table",
		// §II-A). Sharing the Param shares gradients too.
		m.Head = m.Tok.Params()[0]
		m.tied = true
	case DHETok:
		d := dhe.New(dhe.LLMConfig(cfg.Dim, cfg.Seed), rng)
		m.Tok = core.NewDHERep(d, cfg.Vocab)
		m.Head = nn.NewParam("head", tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rng))
	default:
		panic(fmt.Sprintf("llm: unknown token kind %d", kind))
	}
	return m
}

// forwardSeq runs one sequence of tokens through the trunk, returning the
// final hidden states (T×Dim). Caches are retained for backwardSeq.
func (m *Model) forwardSeq(tokens []int) *tensor.Matrix {
	if len(tokens) > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("llm: sequence length %d exceeds MaxSeq %d", len(tokens), m.Cfg.MaxSeq))
	}
	ids := make([]uint64, len(tokens))
	positions := make([]int, len(tokens))
	for i, t := range tokens {
		ids[i] = uint64(t)
		positions[i] = i
	}
	x := m.Tok.Forward(ids)
	tensor.AddInPlace(x, m.Pos.LookupBatch(positions))
	for _, b := range m.Blocks {
		x = b.forward(x)
	}
	return m.LNF.Forward(x)
}

// Logits projects hidden states onto the vocabulary: h·Headᵀ.
func (m *Model) Logits(hidden *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMulTransB(hidden, m.Head.Value, 0)
}

// LossSeq computes the next-token cross-entropy of one (input, target)
// sequence pair without touching gradients.
func (m *Model) LossSeq(tokens, targets []int) float64 {
	hidden := m.forwardSeq(tokens)
	loss, _ := nn.CrossEntropyLogits(m.Logits(hidden), targets)
	return loss
}

// TrainSeq runs forward+backward on one sequence, accumulating gradients,
// and returns the loss. Call ZeroGrads/opt.Step around batches of
// sequences.
func (m *Model) TrainSeq(tokens, targets []int) float64 {
	hidden := m.forwardSeq(tokens)
	logits := m.Logits(hidden)
	loss, dLogits := nn.CrossEntropyLogits(logits, targets)

	// Head gradients: dHead += dLogitsᵀ·hidden; dHidden = dLogits·Head.
	tensor.AddInPlace(m.Head.Grad, tensor.MatMulTransA(dLogits, hidden, 0))
	dX := tensor.MatMul(dLogits, m.Head.Value, 0)

	dX = m.LNF.Backward(dX)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dX = m.Blocks[i].backward(dX)
	}
	ids := make([]uint64, len(tokens))
	positions := make([]int, len(tokens))
	for i, t := range tokens {
		ids[i] = uint64(t)
		positions[i] = i
	}
	m.Pos.BackwardBatch(positions, dX)
	m.Tok.Backward(ids, dX)
	return loss
}

// Params collects all trainable parameters (deduplicating the tied head).
func (m *Model) Params() []*nn.Param {
	out := append([]*nn.Param{}, m.Pos.Params()...)
	out = append(out, m.LNF.Params()...)
	for _, b := range m.Blocks {
		out = append(out, b.params()...)
	}
	out = append(out, m.Tok.Params()...)
	if !m.tied {
		out = append(out, m.Head)
	}
	return out
}

// ZeroGrads clears all gradients.
func (m *Model) ZeroGrads() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// Perplexity evaluates exp(mean CE) over the given sequences — the
// quality metric of Figure 14.
func (m *Model) Perplexity(inputs, targets [][]int) float64 {
	var total float64
	var count int
	for i := range inputs {
		total += m.LossSeq(inputs[i], targets[i]) * float64(len(targets[i]))
		count += len(targets[i])
	}
	return nn.Perplexity(total / float64(count))
}

// NumBytes is the model footprint (the LLM memory analysis of §VI-D3).
func (m *Model) NumBytes() int64 {
	var n int64
	for _, p := range m.Params() {
		n += p.Value.NumBytes()
	}
	return n
}
