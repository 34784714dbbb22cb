package leakcheck

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

// coalesceMaxBatch divides the standard panel batch (8) evenly, so the
// micro-batcher fuses every panel input into exactly two full batches —
// a deterministic composition the trace-equivalence check can pin down.
const coalesceMaxBatch = 4

// CoalescedFactory audits the serving layer's micro-batching scheduler:
// panel ids are submitted as independent single-id requests to a Group
// whose coalescer fuses them into batched Generate calls on a traced
// batched-scan backend. What the audit proves is the §V-B scheduler
// invariant — batch *composition* depends only on arrival count, never on
// the ids being fused. An id-dependent flush policy would change how many
// fused Generate calls (table sweeps) a panel input produces, and the
// trace comparison would flag the divergence; see TestCoalesceAuditTeeth.
func CoalescedFactory(rows, dim int, seed int64) Factory {
	return Factory{
		Name:   "coalesce",
		Rows:   rows,
		Secure: true,
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			table := tensor.NewGaussian(rows, dim, 0.02, rand.New(rand.NewSource(seed)))
			gen := core.MustNew(core.LinearScanBatched, rows, dim, core.Options{Table: table, Tracer: tr, Threads: 1})
			return newCoalescedGen(gen), nil
		},
	}
}

// newCoalescedGen wraps gen behind a one-backend serving Group with the
// audit's deterministic coalescing policy.
func newCoalescedGen(gen core.Generator) *coalescedGen {
	g := serving.NewGroup(
		[]serving.Backend{backends.NewEmbedding(gen, coalesceMaxBatch)},
		serving.GroupConfig{
			QueueDepth: 64,
			// A generous MaxWait forces the gather loop to hold partial
			// batches until they fill: with the panel batch a multiple of
			// coalesceMaxBatch, every run fuses the same full batches no
			// matter how the submitting goroutines are scheduled. The
			// hold's density gate stays armed throughout — a fresh shard
			// holds, and the gaps between the panel's submissions are
			// orders of magnitude inside the window.
			Coalesce: serving.CoalesceConfig{MaxWait: 5 * time.Second},
		})
	return &coalescedGen{Generator: gen, group: g}
}

// coalescedGen adapts the Group to the Generator interface the audit
// harness drives. It is single-shot: Generate tears the group down after
// the batch so each panel input's worker goroutine is reclaimed.
type coalescedGen struct {
	core.Generator // the traced batched scan behind the group
	group          *serving.Group
}

// Generate submits every id as its own request and reassembles the rows
// in input order. The scheduler fuses the requests into full batches; the
// backend's traced sweeps are what the audit compares across the panel.
func (c *coalescedGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	out := tensor.New(len(ids), c.Dim())
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id uint64) {
			defer wg.Done()
			r := c.group.Do(context.Background(), 0, []uint64{id})
			if r.Err != nil {
				errs[i] = r.Err
				return
			}
			copy(out.Row(i), r.Value.(*tensor.Matrix).Row(0))
		}(i, id)
	}
	wg.Wait()
	c.group.Close()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
