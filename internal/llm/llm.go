// Package llm implements a GPT-2-architecture transformer language model —
// the paper's second case study (Figure 1b): token embeddings + learned
// positional encodings feeding a stack of pre-norm attention/FFN blocks,
// with a (tied or separate) output head over the vocabulary.
//
// Like the DLRM package it has two forms: a trainable Model whose token
// embedding is a table or a DHE (the paper finetunes GPT-2 medium with the
// table replaced by DHE, §VI-A3), and an inference Pipeline with KV caches
// whose token embedding is any core.Generator — the seam where the secure
// techniques plug in. Greedy sampling uses the oblivious argmax (§V-C).
package llm

import (
	"fmt"
	"math"
	"math/rand"

	"secemb/internal/nn"
	"secemb/internal/tensor"
)

// Config describes a transformer architecture.
type Config struct {
	Vocab  int
	Dim    int
	Heads  int
	Layers int
	MaxSeq int
	Seed   int64
}

// GPT2Medium is the shape of the paper's model: 355M parameters,
// dim 1024, 24 layers, 16 heads, vocabulary 50257.
func GPT2Medium(seed int64) Config {
	return Config{Vocab: 50257, Dim: 1024, Heads: 16, Layers: 24, MaxSeq: 1024, Seed: seed}
}

func (c Config) headDim() int {
	if c.Dim%c.Heads != 0 {
		panic(fmt.Sprintf("llm: dim %d not divisible by %d heads", c.Dim, c.Heads))
	}
	return c.Dim / c.Heads
}

// block is one pre-norm transformer block: x + Attn(LN1(x)), then
// x + FFN(LN2(x)).
type block struct {
	cfg  Config
	ln1  *nn.LayerNorm
	attn *attention
	ln2  *nn.LayerNorm
	fc1  *nn.Linear
	act  *nn.GELU
	fc2  *nn.Linear
}

func newBlock(cfg Config, rng *rand.Rand) *block {
	return &block{
		cfg:  cfg,
		ln1:  nn.NewLayerNorm(cfg.Dim, rng),
		attn: newAttention(cfg, rng),
		ln2:  nn.NewLayerNorm(cfg.Dim, rng),
		fc1:  nn.NewLinear(cfg.Dim, 4*cfg.Dim, rng),
		act:  &nn.GELU{},
		fc2:  nn.NewLinear(4*cfg.Dim, cfg.Dim, rng),
	}
}

// forward processes one sequence (T×Dim) causally.
func (b *block) forward(x *tensor.Matrix) *tensor.Matrix {
	h := b.attn.forward(b.ln1.Forward(x))
	x2 := tensor.Add(x, h)
	f := b.fc2.Forward(b.act.Forward(b.fc1.Forward(b.ln2.Forward(x2))))
	return tensor.Add(x2, f)
}

// backward propagates dOut for the sequence last seen by forward.
func (b *block) backward(dOut *tensor.Matrix) *tensor.Matrix {
	dH2 := b.ln2.Backward(b.fc1.Backward(b.act.Backward(b.fc2.Backward(dOut))))
	dX2 := tensor.Add(dOut, dH2)
	dH1 := b.ln1.Backward(b.attn.backward(dX2))
	return tensor.Add(dX2, dH1)
}

func (b *block) params() []*nn.Param {
	out := append([]*nn.Param{}, b.ln1.Params()...)
	out = append(out, b.attn.params()...)
	out = append(out, b.ln2.Params()...)
	out = append(out, b.fc1.Params()...)
	out = append(out, b.fc2.Params()...)
	return out
}

// attention is multi-head causal self-attention.
type attention struct {
	cfg  Config
	qkv  *nn.Linear // Dim → 3·Dim
	proj *nn.Linear // Dim → Dim

	// caches for backward (single sequence)
	lastQKV *tensor.Matrix
	lastA   []*tensor.Matrix // per head T×T attention weights
}

func newAttention(cfg Config, rng *rand.Rand) *attention {
	return &attention{
		cfg:  cfg,
		qkv:  nn.NewLinear(cfg.Dim, 3*cfg.Dim, rng),
		proj: nn.NewLinear(cfg.Dim, cfg.Dim, rng),
	}
}

// headView returns head h's slice of a T×3Dim qkv matrix for component
// comp (0=Q, 1=K, 2=V) as a fresh T×headDim matrix.
func (a *attention) headView(qkv *tensor.Matrix, comp, h int) *tensor.Matrix {
	hd := a.cfg.headDim()
	lo := comp*a.cfg.Dim + h*hd
	return tensor.SliceCols(qkv, lo, lo+hd)
}

func (a *attention) forward(x *tensor.Matrix) *tensor.Matrix {
	T := x.Rows
	hd := a.cfg.headDim()
	qkv := a.qkv.Forward(x)
	a.lastQKV = qkv
	a.lastA = a.lastA[:0]
	concat := tensor.New(T, a.cfg.Dim)
	scale := float32(1 / math.Sqrt(float64(hd)))
	for h := 0; h < a.cfg.Heads; h++ {
		q := a.headView(qkv, 0, h)
		k := a.headView(qkv, 1, h)
		v := a.headView(qkv, 2, h)
		scores := tensor.MatMulTransB(q, k, 1)
		tensor.ScaleInPlace(scores, scale)
		applyCausalMask(scores)
		attnW := nn.SoftmaxRows(scores)
		a.lastA = append(a.lastA, attnW)
		o := tensor.MatMul(attnW, v, 1)
		for r := 0; r < T; r++ {
			copy(concat.Row(r)[h*hd:(h+1)*hd], o.Row(r))
		}
	}
	return a.proj.Forward(concat)
}

func (a *attention) backward(dOut *tensor.Matrix) *tensor.Matrix {
	T := dOut.Rows
	hd := a.cfg.headDim()
	dConcat := a.proj.Backward(dOut)
	dQKV := tensor.New(T, 3*a.cfg.Dim)
	scale := float32(1 / math.Sqrt(float64(hd)))
	for h := 0; h < a.cfg.Heads; h++ {
		q := a.headView(a.lastQKV, 0, h)
		k := a.headView(a.lastQKV, 1, h)
		v := a.headView(a.lastQKV, 2, h)
		attnW := a.lastA[h]
		dO := tensor.SliceCols(dConcat, h*hd, (h+1)*hd)

		dAttn := tensor.MatMulTransB(dO, v, 1) // T×T
		dV := tensor.MatMulTransA(attnW, dO, 1)
		// Softmax backward per row: dS = A ⊙ (dA − rowsum(dA⊙A)).
		dScores := tensor.New(T, T)
		for r := 0; r < T; r++ {
			aRow := attnW.Row(r)
			dRow := dAttn.Row(r)
			var dot float32
			for c := range aRow {
				dot += aRow[c] * dRow[c]
			}
			dst := dScores.Row(r)
			for c := range aRow {
				dst[c] = aRow[c] * (dRow[c] - dot)
			}
		}
		tensor.ScaleInPlace(dScores, scale)
		dQ := tensor.MatMul(dScores, k, 1)
		dK := tensor.MatMulTransA(dScores, q, 1)

		for r := 0; r < T; r++ {
			copy(dQKV.Row(r)[h*hd:(h+1)*hd], dQ.Row(r))
			copy(dQKV.Row(r)[a.cfg.Dim+h*hd:a.cfg.Dim+(h+1)*hd], dK.Row(r))
			copy(dQKV.Row(r)[2*a.cfg.Dim+h*hd:2*a.cfg.Dim+(h+1)*hd], dV.Row(r))
		}
	}
	return a.qkv.Backward(dQKV)
}

func (a *attention) params() []*nn.Param {
	return append(append([]*nn.Param{}, a.qkv.Params()...), a.proj.Params()...)
}

// applyCausalMask sets scores[i][j] = -inf-ish for j > i. The mask depends
// only on the (public) sequence length (§V-C: prompt length is not
// hidden).
func applyCausalMask(scores *tensor.Matrix) {
	const negInf = float32(-1e9)
	for r := 0; r < scores.Rows; r++ {
		row := scores.Row(r)
		for c := r + 1; c < len(row); c++ {
			row[c] = negInf
		}
	}
}
