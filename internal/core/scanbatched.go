package core

import (
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

// scanBatchedGen is a batch-amortized variant of the linear scan and the
// subject of this repository's scan ablation (`BenchmarkAblationScanOrder`):
// instead of streaming the table once *per query* (the paper's §V-A2
// formulation), each worker streams it once for its share of the batch and
// blends every row into each of its queries' output slots as it passes.
//
// The masked work is identical (rows × batch blend operations) and so is
// the security argument — every table row is touched for every batch, in
// an id-independent order — but each table word is loaded from DRAM once
// per worker rather than once per query: with k workers the table is
// streamed k times per batch, with one worker once. That helps when the
// table overflows the cache and the batch is large.
type scanBatchedGen struct {
	packedTable
	tracer  *memtrace.Tracer
	region  string
	threads int

	// acc and out are the reusable accumulator and output: they grow on
	// demand and are otherwise resliced (acc cleared; every element of out
	// is overwritten). The returned matrix is valid until this generator's
	// next Generate.
	acc []uint64
	out tensor.Matrix

	// batch is the ids of the Generate in flight; blendFn, bound once,
	// hands them to blend as a parameter (where obliviouslint audits them
	// as secret) without the closure a per-call func literal would
	// allocate.
	batch   []uint64
	blendFn func(lo, hi int)
}

func newScanBatchedGen(table packedTable, opts Options) *scanBatchedGen {
	g := &scanBatchedGen{
		packedTable: table,
		tracer:      opts.Tracer,
		region:      opts.region("scanb"),
		threads:     opts.Threads,
	}
	g.blendFn = func(lo, hi int) { g.blend(g.batch, lo, hi) }
	return g
}

// Generate partitions the batch across workers; each worker streams the
// table once for its queries (so with one worker, the whole batch shares a
// single pass). With Threads ≤ 0 the worker count comes from the installed
// tensor.TuneConfig, one worker per BlockRows ids, so a batch at or below
// BlockRows (64 by default; an 8-id request, for one) is a single pass on
// the caller's goroutine.
//
// secemb:secret ids
// secemb:audit scanb
func (g *scanBatchedGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.rows); err != nil {
		return nil, err
	}
	g.acc = resetWords(g.acc, len(ids)*g.width)
	out := &g.out
	if need := len(ids) * g.dim; cap(out.Data) < need {
		out.Data = make([]float32, need)
	} else {
		out.Data = out.Data[:need]
	}
	out.Rows, out.Cols = len(ids), g.dim
	g.batch = ids
	tensor.ParallelRows(len(ids), batchWorkers(g.threads, g.tracer), g.blendFn)
	g.batch = nil
	return out, nil
}

// blend makes one pass over the table for queries [lo, hi) and unpacks
// their rows into the output.
//
// secemb:secret ids
func (g *scanBatchedGen) blend(ids []uint64, lo, hi int) {
	g.tracer.TouchRange(g.region, 0, int64(g.rows), memtrace.Read)
	w := g.width
	g.scan(ids[lo:hi], g.acc[lo*w:hi*w])
	for q := lo; q < hi; q++ {
		unpackRow(g.out.Row(q), g.acc[q*w:(q+1)*w])
	}
}

func (g *scanBatchedGen) Technique() Technique { return LinearScanBatched }
