package core

import (
	"secemb/internal/memtrace"
	"secemb/internal/oblivious"
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
	tensor.ParallelRows(len(ids), g.threads, func(lo, hi int) {
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
// blended into the output with branchless masked copies — the Go analogue
// of the paper's AVX-512 blend implementation. O(n) per query; the fastest
// secure technique for small tables (Figure 4).
type scanGen struct {
	table   *tensor.Matrix
	tracer  *memtrace.Tracer
	region  string
	threads int
}

func newScanGen(table *tensor.Matrix, opts Options) *scanGen {
	return &scanGen{
		table:   table,
		tracer:  opts.Tracer,
		region:  opts.region("scan"),
		threads: opts.Threads,
	}
}

// Generate serves every query with a full oblivious table scan.
//
// secemb:secret ids
// secemb:audit scan
func (g *scanGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.table.Rows); err != nil {
		return nil, err
	}
	out := tensor.New(len(ids), g.table.Cols)
	rows, width := g.table.Rows, g.table.Cols
	// The batch is partitioned across threads; every worker scans the
	// full table per query, as in the paper ("we scan the entire
	// embedding table for each input index in a batch"). With several
	// threads the scans share the table in cache, the reuse effect that
	// raises the scan/DHE threshold with thread count (Fig. 6).
	tensor.ParallelRows(len(ids), g.threads, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			if g.tracer.Enabled() {
				g.tracer.TouchRange(g.region, 0, int64(rows), memtrace.Read)
			}
			oblivious.LookupScan(g.table.Data, rows, width, ids[r], out.Row(r))
		}
	})
	return out, nil
}

func (g *scanGen) Rows() int            { return g.table.Rows }
func (g *scanGen) Dim() int             { return g.table.Cols }
func (g *scanGen) Technique() Technique { return LinearScan }
func (g *scanGen) NumBytes() int64      { return g.table.NumBytes() }
