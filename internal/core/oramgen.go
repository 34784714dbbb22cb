package core

import (
	"crypto/rand"
	"encoding/binary"
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

	out tensor.Matrix // the reused output of each Generate
}

// newORAMGen keys the leaves from crypto/rand: whoever knew opts.Seed would
// know the position map, and replicas would mirror one another's paths.
func newORAMGen(rows, dim int, tech Technique, opts Options) *oramGen {
	var key [8]byte
	rand.Read(key[:]) // never fails: crypto/rand aborts the process instead
	cfg := oram.Config{
		NumBlocks:  rows,
		BlockWords: dim,
		Seed:       int64(binary.LittleEndian.Uint64(key[:])),
		Tracer:     opts.Tracer,
	}
	var o *oram.Controller
	if tech == PathORAM {
		cfg.Region = opts.region("path")
		o = oram.NewPathInit(cfg, opts.rowSource())
	} else {
		cfg.Region = opts.region("circuit")
		o = oram.NewCircuitInit(cfg, opts.rowSource())
	}
	return &oramGen{o: o, rows: rows, dim: dim, tech: tech}
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
	out := reslice(&g.out, len(ids), g.dim)
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
