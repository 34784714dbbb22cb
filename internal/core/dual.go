package core

import "secemb/internal/tensor"

// Dual is the LLM hybrid scheme of §IV-D: two representations of the same
// embedding — a DHE and a table materialized *from that DHE's outputs*
// protected by Circuit ORAM — with the technique chosen per call from the
// batch size. Prefill batches (prompt length × requests) exceed the
// threshold and use DHE; single-token decode batches can fall to the ORAM.
//
// Security: the choice depends only on the batch size, which in turn
// depends on the query batch, LLM stage and token counts — all public in
// the threat model ("the decision to choose DHE or Circuit ORAM in LLM
// generation depends on only the embedding generation batch size ...
// none of which we hide", §V-B). The ids never influence the choice.
type Dual struct {
	dhe       Generator
	oram      Generator
	threshold int // batches strictly larger than this use DHE
}

// NewDual wraps a trained DHE generator, materializing its table into a
// Circuit ORAM for small-batch service. threshold is the largest batch
// size still served by the ORAM (profile.LLMResult.BestSecure yields it).
func NewDual(dheGen Generator, threshold int, opts Options) *Dual {
	d, ok := Underlying(dheGen)
	if !ok {
		panic("core: NewDual requires a DHE generator")
	}
	table := d.ToTable(dheGen.Rows())
	opts.Table = table
	return &Dual{
		dhe:       dheGen,
		oram:      MustNew(CircuitORAM, table.Rows, table.Cols, opts),
		threshold: threshold,
	}
}

// Generate dispatches on the (public) batch size.
//
// secemb:secret ids
// secemb:audit dual
func (g *Dual) Generate(ids []uint64) (*tensor.Matrix, error) {
	if len(ids) > g.threshold {
		return g.dhe.Generate(ids)
	}
	return g.oram.Generate(ids)
}

// Active reports which representation a batch of the given size would use.
func (g *Dual) Active(batch int) Technique {
	if batch > g.threshold {
		return DHE
	}
	return CircuitORAM
}

// Rows returns the table cardinality.
func (g *Dual) Rows() int { return g.dhe.Rows() }

// Dim returns the embedding dimension.
func (g *Dual) Dim() int { return g.dhe.Dim() }

// Technique reports DHE (the primary representation; see Active for the
// per-batch dispatch).
func (g *Dual) Technique() Technique { return DHE }

// NumBytes counts both resident representations — the memory price of the
// dual scheme the paper flags for small models (§IV-D: "the memory
// overhead of ORAM for a single embedding table may be high relative to
// the rest of the LLM model").
func (g *Dual) NumBytes() int64 { return g.dhe.NumBytes() + g.oram.NumBytes() }
