// Package backends adapts this repository's workloads to the generic
// serving.Backend interface, keeping the scheduler and dispatch layers
// workload-agnostic (serving no longer imports dlrm or llm). Each adapter
// owns the fusing step: many independently submitted request payloads
// become one batched pipeline execution, which is where every
// batch-amortized latency claim in the paper is realized — a fused DHE
// batch shares the encoder pass that per-request execution repeats.
//
// Adapters hold stateful pipelines (ORAM position maps, DHE inference
// buffers, KV caches), so a Backend instance must be driven by exactly
// one serving worker; the dispatch layer guarantees this by assigning
// each backend to a single shard.
package backends

import (
	"fmt"

	"secemb/internal/core"
	"secemb/internal/dlrm"
	"secemb/internal/llm"
	"secemb/internal/serving"
	"secemb/internal/tensor"
)

// DefaultMaxBatch bounds fused batches when the caller does not choose:
// large enough to reach the amortization plateau of Fig. 5, small enough
// to keep tail latency of the fused execution bounded.
const DefaultMaxBatch = 64

// --- DLRM ---------------------------------------------------------------

// DLRMRequest is one CTR inference request: a batch of dense rows with
// per-feature sparse ids (rows across requests are fused).
type DLRMRequest struct {
	Dense  *tensor.Matrix
	Sparse [][]uint64
}

// DLRM serves DLRMRequests on one dlrm.Pipeline, fusing the dense rows
// and sparse ids of every request in the batch into a single Predict.
type DLRM struct {
	pipe     *dlrm.Pipeline
	maxBatch int
}

// NewDLRM wraps a pipeline replica. maxBatch caps fused requests per
// execution (0 → DefaultMaxBatch).
func NewDLRM(p *dlrm.Pipeline, maxBatch int) *DLRM {
	if maxBatch < 1 {
		maxBatch = DefaultMaxBatch
	}
	return &DLRM{pipe: p, maxBatch: maxBatch}
}

// MaxBatch reports the fused-request cap.
func (b *DLRM) MaxBatch() int { return b.maxBatch }

// Execute fuses the payloads into one pipeline batch and splits the
// probabilities back per request. Malformed payloads fail individually;
// pipeline errors (out-of-range ids anywhere in the fused batch) fail the
// whole batch, matching the per-request behavior of Pipeline.Predict.
func (b *DLRM) Execute(payloads []any) ([]serving.Result, error) {
	results := make([]serving.Result, len(payloads))
	nFeat := len(b.pipe.Gens)
	reqs := make([]*DLRMRequest, 0, len(payloads))
	idx := make([]int, 0, len(payloads))
	rows := 0
	for i, p := range payloads {
		r, ok := p.(*DLRMRequest)
		if !ok || r.Dense == nil || len(r.Sparse) != nFeat {
			results[i].Err = fmt.Errorf("backends: payload %d is not a well-formed *DLRMRequest", i)
			continue
		}
		reqs = append(reqs, r)
		idx = append(idx, i)
		rows += r.Dense.Rows
	}
	if len(reqs) == 0 {
		return results, nil
	}
	if len(reqs) == 1 {
		// Single-request fast path: no concatenation or split copies
		// (Predict's output is freshly allocated, so ownership transfers).
		probs, err := b.pipe.Predict(reqs[0].Dense, reqs[0].Sparse)
		if err != nil {
			return nil, err
		}
		results[idx[0]].Value = probs
		return results, nil
	}
	var probs *tensor.Matrix
	var err error
	{
		dense := tensor.New(rows, reqs[0].Dense.Cols)
		sparse := make([][]uint64, nFeat)
		for f := range sparse {
			sparse[f] = make([]uint64, 0, rows)
		}
		r0 := 0
		for _, r := range reqs {
			for i := 0; i < r.Dense.Rows; i++ {
				copy(dense.Row(r0+i), r.Dense.Row(i))
			}
			r0 += r.Dense.Rows
			for f := range sparse {
				sparse[f] = append(sparse[f], r.Sparse[f]...)
			}
		}
		probs, err = b.pipe.Predict(dense, sparse)
	}
	if err != nil {
		return nil, err
	}
	r0 := 0
	for k, r := range reqs {
		n := r.Dense.Rows
		// SliceRows copies, so no caller pins the fused batch.
		results[idx[k]].Value = tensor.SliceRows(probs, r0, r0+n)
		r0 += n
	}
	return results, nil
}

// --- Embedding ----------------------------------------------------------

// Embedding serves raw secure embedding generation: each payload is a
// []uint64 id batch, fused into one Generate call. This is the decode-path
// embedding service for LLM token streams — and the backend that hands the
// §IV-D Dual scheme the coalesced batch sizes its threshold dispatches on.
type Embedding struct {
	gen      core.Generator
	maxBatch int
}

// NewEmbedding wraps a generator. maxBatch caps fused id batches per
// execution (0 → DefaultMaxBatch).
func NewEmbedding(g core.Generator, maxBatch int) *Embedding {
	if maxBatch < 1 {
		maxBatch = DefaultMaxBatch
	}
	return &Embedding{gen: g, maxBatch: maxBatch}
}

// MaxBatch reports the fused-request cap.
func (b *Embedding) MaxBatch() int { return b.maxBatch }

// Generator exposes the wrapped generator (for stats and technique
// reporting).
func (b *Embedding) Generator() core.Generator { return b.gen }

// Execute concatenates every payload's ids into one Generate call and
// splits the embedding rows back per request. Ids are range-checked per
// payload before fusing, so an out-of-range id fails only the request that
// sent it: the requests fused with it are served, and learn nothing of it.
func (b *Embedding) Execute(payloads []any) ([]serving.Result, error) {
	results := make([]serving.Result, len(payloads))
	total := 0
	for _, p := range payloads {
		if batch, ok := p.([]uint64); ok {
			total += len(batch)
		}
	}
	ids := make([]uint64, 0, total)
	idx := make([]int, 0, len(payloads))
	counts := make([]int, 0, len(payloads))
	rows := b.gen.Rows()
	for i, p := range payloads {
		batch, ok := p.([]uint64)
		if !ok || len(batch) == 0 {
			results[i].Err = fmt.Errorf("backends: payload %d is not a non-empty []uint64", i)
			continue
		}
		if err := core.ValidateIDs(batch, rows); err != nil {
			results[i].Err = err
			continue
		}
		ids = append(ids, batch...)
		idx = append(idx, i)
		counts = append(counts, len(batch))
	}
	if len(idx) == 0 {
		return results, nil
	}
	emb, err := b.gen.Generate(ids)
	if err != nil {
		return nil, err
	}
	// A generator's output is storage it owns, valid only until its next
	// Generate; SliceRows copies each request's rows out of it, once.
	r0 := 0
	for k, i := range idx {
		results[i].Value = tensor.SliceRows(emb, r0, r0+counts[k])
		r0 += counts[k]
	}
	return results, nil
}

// --- LLM ----------------------------------------------------------------

// LLMDecodeRequest advances one single-sequence session by one token.
// The session must have been created on the pipeline of the shard this
// request routes to (serving.Group.ShardOf gives the pinning).
type LLMDecodeRequest struct {
	Session *llm.Session
	Token   int
}

// LLMDecode fuses single-token decode steps from many concurrent
// generation streams into one llm.DecodeFused call: the embedding batch
// seen by the (possibly Dual) generator is the stream count, not 1.
type LLMDecode struct {
	pipe     *llm.Pipeline
	maxBatch int
}

// NewLLMDecode wraps a pipeline replica for fused decode. maxBatch caps
// fused streams per step (0 → DefaultMaxBatch).
func NewLLMDecode(p *llm.Pipeline, maxBatch int) *LLMDecode {
	if maxBatch < 1 {
		maxBatch = DefaultMaxBatch
	}
	return &LLMDecode{pipe: p, maxBatch: maxBatch}
}

// MaxBatch reports the fused-stream cap.
func (b *LLMDecode) MaxBatch() int { return b.maxBatch }

// Execute fuses the decode steps; each Result.Value is that stream's
// 1×Vocab next-token logits.
func (b *LLMDecode) Execute(payloads []any) ([]serving.Result, error) {
	results := make([]serving.Result, len(payloads))
	sessions := make([]*llm.Session, 0, len(payloads))
	tokens := make([]int, 0, len(payloads))
	idx := make([]int, 0, len(payloads))
	for i, p := range payloads {
		r, ok := p.(*LLMDecodeRequest)
		if !ok || r.Session == nil {
			results[i].Err = fmt.Errorf("backends: payload %d is not a well-formed *LLMDecodeRequest", i)
			continue
		}
		sessions = append(sessions, r.Session)
		tokens = append(tokens, r.Token)
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		return results, nil
	}
	outs, err := llm.DecodeFused(sessions, tokens)
	if err != nil {
		return nil, err
	}
	for k, i := range idx {
		results[i].Value = outs[k]
	}
	return results, nil
}
