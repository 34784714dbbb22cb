package core

import (
	"secemb/internal/memtrace"
	"secemb/internal/oblivious"
	"secemb/internal/tensor"
)

// scanBatchedGen is a batch-amortized variant of the linear scan and the
// subject of this repository's scan ablation (`BenchmarkAblationScanOrder`):
// instead of streaming the table once *per query* (the paper's §V-A2
// formulation), it streams the table exactly once per batch and blends
// each row into every query's output slot as it passes.
//
// The masked work is identical (rows × batch blend operations) and so is
// the security argument — every table row is touched for every batch, in
// an id-independent order — but each table word is loaded from DRAM once
// per batch rather than once per query, which helps when the table
// overflows the cache and the batch is large.
type scanBatchedGen struct {
	table   *tensor.Matrix
	tracer  *memtrace.Tracer
	region  string
	threads int

	// out is the reusable output: its Data slab grows on demand and is
	// otherwise resliced and cleared. The returned matrix is valid until
	// this generator's next Generate.
	out tensor.Matrix
}

func newScanBatchedGen(table *tensor.Matrix, opts Options) *scanBatchedGen {
	return &scanBatchedGen{
		table:   table,
		tracer:  opts.Tracer,
		region:  opts.region("scanb"),
		threads: opts.Threads,
	}
}

// Generate streams the table once for the whole batch, blending rows into
// every query slot as they pass.
//
// secemb:secret ids
// secemb:audit scanb
func (g *scanBatchedGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.table.Rows); err != nil {
		return nil, err
	}
	rows, width := g.table.Rows, g.table.Cols
	out := &g.out
	if need := len(ids) * width; cap(out.Data) < need {
		out.Data = make([]float32, need)
	} else {
		out.Data = out.Data[:need]
		clear(out.Data)
	}
	out.Rows, out.Cols = len(ids), width
	// Partition the *batch* across workers; each worker makes one pass
	// over the table for its queries (so with one worker, the whole batch
	// shares a single pass).
	tensor.ParallelRows(len(ids), g.threads, func(lo, hi int) {
		if g.tracer.Enabled() {
			g.tracer.TouchRange(g.region, 0, int64(rows), memtrace.Read)
		}
		for r := 0; r < rows; r++ {
			row := g.table.Data[r*width : (r+1)*width]
			for q := lo; q < hi; q++ {
				mask := oblivious.Eq(uint64(r), ids[q])
				oblivious.CondCopy(mask, out.Row(q), row)
			}
		}
	})
	return out, nil
}

func (g *scanBatchedGen) Rows() int            { return g.table.Rows }
func (g *scanBatchedGen) Dim() int             { return g.table.Cols }
func (g *scanBatchedGen) Technique() Technique { return LinearScanBatched }
func (g *scanBatchedGen) NumBytes() int64      { return g.table.NumBytes() }
