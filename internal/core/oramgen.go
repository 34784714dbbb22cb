package core

import (
	"math"

	"secemb/internal/oram"
	"secemb/internal/tensor"
)

// oramGen protects a stored embedding table with a tree ORAM. Queries in a
// batch are served sequentially — "processing each item in the input batch
// is sequential since the internal ORAM structures must be updated
// sequentially and parallelism is not possible" (§V-A1) — which is why
// ORAM scales poorly with batch size (Figure 12).
type oramGen struct {
	o    *oram.Controller
	rows int
	dim  int
	tech Technique

	// out is the reusable output: its Data slab grows on demand and is
	// otherwise resliced (every row is overwritten). The returned matrix
	// is valid until this generator's next Generate.
	out tensor.Matrix
}

func newORAMGen(table *tensor.Matrix, tech Technique, opts Options) *oramGen {
	cfg := oram.Config{
		NumBlocks:  table.Rows,
		BlockWords: table.Cols,
		Seed:       opts.Seed,
		Tracer:     opts.Tracer,
	}
	var o *oram.Controller
	if tech == PathORAM {
		cfg.Region = opts.region("path")
		o = oram.NewPathInit(cfg, tableToBlocks(table))
	} else {
		cfg.Region = opts.region("circuit")
		o = oram.NewCircuitInit(cfg, tableToBlocks(table))
	}
	return &oramGen{o: o, rows: table.Rows, dim: table.Cols, tech: tech}
}

// tableToBlocks reinterprets each float32 row as an ORAM payload of raw
// uint32 words, all rows in one allocation.
func tableToBlocks(table *tensor.Matrix) [][]uint32 {
	words := make([]uint32, len(table.Data))
	for i, v := range table.Data {
		words[i] = math.Float32bits(v)
	}
	blocks := make([][]uint32, table.Rows)
	for r := range blocks {
		blocks[r] = words[r*table.Cols : (r+1)*table.Cols]
	}
	return blocks
}

// Generate serves the batch sequentially through the tree ORAM, decoding
// each block straight into its output row within the access. The
// controller is held by its concrete type so the Update closure stays on
// the stack: a steady-state Generate allocates nothing.
//
// secemb:secret ids
// secemb:audit path circuit
func (g *oramGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.rows); err != nil {
		return nil, err
	}
	out := &g.out
	if need := len(ids) * g.dim; cap(out.Data) < need {
		out.Data = make([]float32, need)
	} else {
		out.Data = out.Data[:need]
	}
	out.Rows, out.Cols = len(ids), g.dim
	for r, id := range ids {
		dst := out.Row(r)
		g.o.Update(id, func(words []uint32) {
			for c, w := range words {
				dst[c] = math.Float32frombits(w)
			}
		})
	}
	return out, nil
}

func (g *oramGen) Rows() int            { return g.rows }
func (g *oramGen) Dim() int             { return g.dim }
func (g *oramGen) Technique() Technique { return g.tech }
func (g *oramGen) NumBytes() int64      { return g.o.NumBytes() }
