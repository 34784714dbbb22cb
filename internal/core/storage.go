package core

import (
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

// lookupGen is the non-secure baseline: a direct row gather. Its trace
// records exactly the requested rows — the leak demonstrated in §III.
type lookupGen struct {
	table   *tensor.Matrix
	out     tensor.Matrix // the reused output of each Generate
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
// function's own body: the one deliberate leak carries the one waiver.
//
// secemb:secret ids
// secemb:audit lookup
func (g *lookupGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.table.Rows); err != nil {
		return nil, err
	}
	out := reslice(&g.out, len(ids), g.table.Cols)
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

// scanGen is the oblivious linear scan (§IV-A1 / §V-A2): the entire table
// is streamed past the queries and each matching row is blended into its
// output slot with branchless masked words — the Go analogue of the
// paper's AVX-512 blend implementation. O(n) per query; the fastest secure
// technique for small tables (Figure 4).
//
// tech, public configuration, picks how many ids one table pass serves:
// one for LinearScan, as in the paper ("we scan the entire embedding table
// for each input index in a batch"); the worker's whole share of the batch
// for LinearScanBatched, this repository's scan ablation
// (BenchmarkAblationScanOrder). The masked work and the security argument
// are the same — every row is touched for every batch, in an
// id-independent order — but the batched form loads each table word once
// per worker rather than once per query, which helps when the table
// overflows the cache and the batch is large.
type scanGen struct {
	packedTable
	tech    Technique
	tracer  *memtrace.Tracer
	region  string
	threads int

	// acc (one packed row per query) and out are reused across calls.
	// passFn, bound once, hands batch, the ids in flight, to pass as a
	// parameter (where obliviouslint audits them as secret) without the
	// closure a per-call func literal would allocate.
	acc    []uint64
	out    tensor.Matrix
	batch  []uint64
	passFn func(lo, hi int)
}

func newScanGen(tech Technique, table packedTable, opts Options) *scanGen {
	g := &scanGen{
		packedTable: table,
		tech:        tech,
		tracer:      opts.Tracer,
		region:      opts.region(tech.Key()),
		threads:     opts.Threads,
	}
	g.passFn = func(lo, hi int) {
		n := hi - lo
		if g.tech == LinearScan {
			n = 1
		}
		for q := lo; q < hi; q += n {
			g.pass(g.batch, q, q+n)
		}
	}
	return g
}

// Generate partitions the batch across workers, and each worker serves
// its share in table passes of tech's size. With several workers the
// passes share the table in cache, the reuse effect that raises the
// scan/DHE threshold with thread count (Fig. 6). With Threads ≤ 0 the
// worker count comes from the installed tensor.TuneConfig, one worker per
// BlockRows ids, so a batch at or below BlockRows (64 by default; an 8-id
// request, for one) runs on the caller's goroutine.
//
// secemb:secret ids
// secemb:audit scan scanb
func (g *scanGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.rows); err != nil {
		return nil, err
	}
	g.acc = resetWords(g.acc, len(ids)*g.width)
	out := reslice(&g.out, len(ids), g.dim)
	g.batch = ids
	tensor.ParallelRows(len(ids), batchWorkers(g.threads, g.tracer), g.passFn)
	g.batch = nil
	return out, nil
}

// pass streams the table once for queries [lo, hi) and unpacks their rows
// into the output.
//
// secemb:secret ids
func (g *scanGen) pass(ids []uint64, lo, hi int) {
	g.tracer.TouchRange(g.region, 0, int64(g.rows), memtrace.Read)
	w := g.width
	g.scan(ids[lo:hi], g.acc[lo*w:hi*w])
	for q := lo; q < hi; q++ {
		unpackRow(g.out.Row(q), g.acc[q*w:(q+1)*w])
	}
}

func (g *scanGen) Technique() Technique { return g.tech }

// batchWorkers is the worker count a storage generator's batch runs on:
// threads, or one while tracer records. memtrace.Tracer appends without a
// lock, and one goroutine makes the trace identical to a Threads: 1 run's.
func batchWorkers(threads int, tracer *memtrace.Tracer) int {
	if tracer.Enabled() {
		return 1
	}
	return threads
}

// reslice makes m a rows × cols matrix, growing its slab only when it is
// too small, and returns m. Callers overwrite every element, so a
// generator can return m, valid until its next Generate.
func reslice(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if need := rows * cols; cap(m.Data) < need {
		m.Data = make([]float32, need)
	} else {
		m.Data = m.Data[:need]
	}
	m.Rows, m.Cols = rows, cols
	return m
}
