package core

import (
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

// lookupGen is the non-secure baseline: a direct row gather. Its trace
// records exactly the requested rows — the leak demonstrated in §III.
type lookupGen struct {
	table   *tensor.Matrix
	tracer  *memtrace.Tracer
	region  string
	threads int
}

func newLookupGen(table *tensor.Matrix, opts Options) *lookupGen {
	return &lookupGen{
		table:   table,
		tracer:  opts.Tracer,
		region:  opts.region("lookup"),
		threads: opts.Threads,
	}
}

// Generate gathers the requested rows directly — the insecure baseline.
// The waived leak below is the point of this generator's existence: the
// dynamic audit (internal/leakcheck) asserts it stays observable. The
// gather is spelled out inline so the secret-addressed slice is in this
// function's own body: the one deliberate leak carries the one waiver,
// instead of blanket-waiving every call that touches the secret.
//
// secemb:secret ids
// secemb:audit lookup
func (g *lookupGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.table.Rows); err != nil {
		return nil, err
	}
	out := tensor.New(len(ids), g.table.Cols)
	tensor.ParallelRows(len(ids), batchWorkers(g.threads, g.tracer), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			g.tracer.Touch(g.region, int64(ids[r]), memtrace.Read)
			base := int(ids[r]) * g.table.Cols
			//lint:allow obliviouslint/index non-secure baseline: the address leak is deliberate (§III) and leakcheck asserts it is flagged
			copy(out.Row(r), g.table.Data[base:base+g.table.Cols])
		}
	})
	return out, nil
}

func (g *lookupGen) Rows() int            { return g.table.Rows }
func (g *lookupGen) Dim() int             { return g.table.Cols }
func (g *lookupGen) Technique() Technique { return Lookup }
func (g *lookupGen) NumBytes() int64      { return g.table.NumBytes() }

// scanGen is the oblivious linear scan (§IV-A1 / §V-A2): for every query
// in the batch the entire table is streamed and the matching row is
// blended into the output with branchless masked words — the Go analogue
// of the paper's AVX-512 blend implementation. O(n) per query; the fastest
// secure technique for small tables (Figure 4).
type scanGen struct {
	packedTable
	tracer  *memtrace.Tracer
	region  string
	threads int

	// acc is the reusable accumulator, one row per query. batch and out
	// are the Generate in flight; scanFn, bound once, hands batch to
	// scanQueries as a parameter (where obliviouslint audits it as secret)
	// without the closure a per-call func literal would allocate, so a
	// Generate allocates only the matrix it returns.
	acc    []uint64
	batch  []uint64
	out    *tensor.Matrix
	scanFn func(lo, hi int)
}

func newScanGen(table packedTable, opts Options) *scanGen {
	g := &scanGen{
		packedTable: table,
		tracer:      opts.Tracer,
		region:      opts.region("scan"),
		threads:     opts.Threads,
	}
	g.scanFn = func(lo, hi int) { g.scanQueries(g.batch, lo, hi) }
	return g
}

// Generate serves every query with a full oblivious table scan. The batch
// is partitioned across workers; every worker scans the full table per
// query, as in the paper ("we scan the entire embedding table for each
// input index in a batch"). With several workers the scans share the
// table in cache, the reuse effect that raises the scan/DHE threshold with
// thread count (Fig. 6).
//
// secemb:secret ids
// secemb:audit scan
func (g *scanGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.rows); err != nil {
		return nil, err
	}
	out := tensor.New(len(ids), g.dim)
	g.acc = resetWords(g.acc, len(ids)*g.width)
	g.batch, g.out = ids, out
	tensor.ParallelRows(len(ids), batchWorkers(g.threads, g.tracer), g.scanFn)
	g.batch, g.out = nil, nil
	return out, nil
}

// scanQueries scans the table once for each query in [lo, hi).
//
// secemb:secret ids
func (g *scanGen) scanQueries(ids []uint64, lo, hi int) {
	w := g.width
	for q := lo; q < hi; q++ {
		g.tracer.TouchRange(g.region, 0, int64(g.rows), memtrace.Read)
		acc := g.acc[q*w : (q+1)*w]
		g.scan(ids[q:q+1], acc)
		unpackRow(g.out.Row(q), acc)
	}
}

func (g *scanGen) Technique() Technique { return LinearScan }

// batchWorkers is the worker count a storage generator's batch runs on:
// threads, or one while tracer records. memtrace.Tracer appends without a
// lock, and one goroutine makes the trace identical to a Threads: 1 run's.
func batchWorkers(threads int, tracer *memtrace.Tracer) int {
	if tracer.Enabled() {
		return 1
	}
	return threads
}
