// The scheduler layer: one coalescing worker per backend, fusing queued
// requests into batched executions.
//
// Security invariant (§V-B): every flush decision below depends only on
// public quantities — how many requests are queued, how long the oldest
// has waited, the per-request deadlines, and the shard's arrival density
// (a smoothed gap between admission timestamps, compared with MaxWait) —
// never on request payloads. The gather loop cannot even reach the
// embedded ids: task payloads are opaque `any` values the scheduler only
// ever copies into the fused slice, and the density gate (arrivals) is fed
// a time.Time and asked about a time.Duration — it cannot reach a task.
// The invariant is audited dynamically by the "coalesce" target in the
// leakcheck roster (id panels must produce identical batch compositions,
// hence identical backend traces) and statically by the obliviouslint
// flush fixture (an id-dependent flush policy or an id-fed gap estimate is
// flagged as a tainted branch).
package serving

import (
	"fmt"
	"sync"
	"time"
)

// gapSmoothing is the arrival-gap EWMA's 1/α. The estimate must average
// over at least one burst period: closed-loop clients return in bursts (a
// handful of arrivals tens of µs apart, then most of a round trip of
// silence), and at 8 each silence lifts the estimate by an eighth of its
// length, across the gate's boundary for any load near it, so the hold
// flaps; at 64 the estimate sits at the mean gap.
const gapSmoothing = 64

// denseGaps is how many hold windows the smoothed gap may span while the
// shard still counts as dense: the hold is armed while at least 1/denseGaps
// of an arrival is expected inside it. At 1 the verdict sits on the
// estimate's noise for exactly the load that must stay held — 8 closed-loop
// callers per shard at a ≈1.3 ms round trip arrive ≈165 µs apart against
// the 200 µs default, and a quarter to a third of their batches left
// greedily (mean batch 6.0 → 4.9). At 2 none do, and the lone callers the
// gate exists for sit 1.6–6 windows out, well beyond it.
const denseGaps = 2

// arrivals is a shard's arrival-density estimate: the smoothed gap between
// consecutive admission timestamps. It is the whole input of the hold gate
// besides MaxWait, and sees clocks only.
type arrivals struct {
	mu   sync.Mutex
	last time.Time
	gap  time.Duration // EWMA of inter-arrival gaps; 0 until two arrivals
}

// observe folds one admission at now into the estimate. Concurrent callers
// may deliver timestamps slightly out of order; a timestamp behind the
// newest counts as a zero gap.
func (a *arrivals) observe(now time.Time) {
	a.mu.Lock()
	first := a.last.IsZero()
	var sample time.Duration
	if now.After(a.last) {
		sample = now.Sub(a.last)
		a.last = now
	}
	if !first {
		a.gap += (sample - a.gap) / gapSmoothing
	}
	a.mu.Unlock()
}

// dense reports whether arrivals are frequent enough for a hold of window
// to pay: the smoothed gap is under denseGaps windows. With no history the
// estimate is zero — dense — so a first lone request is held, and a shard
// has to show longer gaps before it is treated as sparse. A zero window is
// never dense.
func (a *arrivals) dense(window time.Duration) bool {
	a.mu.Lock()
	gap := a.gap
	a.mu.Unlock()
	return gap/denseGaps < window
}

// flushCause says why gather handed a batch to the backend — the label set
// of serving_flush_total.
type flushCause int

const (
	flushFull     flushCause = iota // batch reached its cap
	flushDrained                    // queue empty and no hold armed
	flushDeadline                   // the hold (MaxWait or a member's deadline) ran out
	flushClosed                     // queue closed: graceful drain
	numFlushCauses
)

var flushCauseNames = [numFlushCauses]string{"full", "drained", "deadline", "closed"}

// worker drains s.queue into be, one fused batch at a time, until the
// queue is closed and empty (graceful drain: admitted requests are always
// served). batch, payloads and the hold timer are worker-local and reused
// across rounds so steady-state scheduling is allocation-free.
func (g *Group) worker(s *shard, be Backend, cfg CoalesceConfig) {
	defer g.wg.Done()
	maxBatch := effectiveMaxBatch(be)
	batch := make([]*task, 0, maxBatch)
	payloads := make([]any, 0, maxBatch)
	// gather leaves hold stopped on every return; go.mod ≥ 1.23 means a
	// stopped or reset timer has no stale tick in C to drain.
	hold := time.NewTimer(time.Hour)
	hold.Stop()
	for first := range s.queue {
		s.depth.Add(-1)
		g.mQueueDepth.Add(-1)
		var cause flushCause
		batch, cause = g.gather(s, first, batch[:0], maxBatch, cfg.MaxWait, hold)
		g.mFlush[cause].Inc()
		g.execute(be, batch, payloads[:0])
	}
}

// gather assembles one fused batch starting from first. Composition
// depends only on arrival order, count and timing: requests join strictly
// in queue order until the batch is full, the queue is momentarily empty
// with no hold armed, or the flush deadline passes. MaxWait is an upper
// bound on the hold, not a timer every partial batch sits out: the worker
// parks only while the shard's arrival density (s.arrivals — admission
// timestamps and MaxWait, nothing else) says another request is likely
// inside the window; a sparse shard takes the same greedy exit MaxWait 0
// does. The deadline is the earliest of oldest-enqueue + MaxWait and every
// member's own context deadline, so a request is never held past either
// bound.
//
// secemb:audit coalesce
func (g *Group) gather(s *shard, first *task, batch []*task, maxBatch int, maxWait time.Duration, hold *time.Timer) ([]*task, flushCause) {
	batch = append(batch, first)
	deadline := first.enqueued.Add(maxWait)
	join := func(t *task) {
		s.depth.Add(-1)
		g.mQueueDepth.Add(-1)
		batch = append(batch, t)
		if d, ok := t.ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
	}
	if d, ok := first.ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for len(batch) < maxBatch {
		// Fast path: fuse whatever is already queued, in arrival order.
		select {
		case t, ok := <-s.queue:
			if !ok {
				return batch, flushClosed // flush the partial batch
			}
			join(t)
			continue
		default:
		}
		// Greedy exit: never wait for co-batching (MaxWait 0), or arrivals
		// are too sparse for the hold to pay (no shard is dense against a
		// zero window, so one comparison covers both).
		if !s.arrivals.dense(maxWait) {
			return batch, flushDrained
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return batch, flushDeadline
		}
		hold.Reset(wait)
		select {
		case t, ok := <-s.queue:
			hold.Stop()
			if !ok {
				return batch, flushClosed
			}
			join(t)
		case <-hold.C:
			return batch, flushDeadline
		}
	}
	return batch, flushFull
}

// execute runs one fused batch: canceled requests are answered without
// work, the survivors' payloads are fused into a single backend call, and
// each result is delivered to its caller. A caller that abandoned its
// wait gets its task recycled here (and counted) instead of leaking to
// the GC.
func (g *Group) execute(be Backend, batch []*task, payloads []any) {
	now := time.Now()
	live := batch[:0]
	for _, t := range batch {
		g.mCoalesceWait.ObserveDuration(now.Sub(t.enqueued))
		// Skip work for callers that gave up while queued; answer with
		// their own cancellation cause in case they are still racing.
		if err := t.ctx.Err(); err != nil {
			g.mCanceled.Inc()
			g.finish(t, Response{Err: err, QueueWait: now.Sub(t.enqueued), Shard: t.shard})
			continue
		}
		live = append(live, t)
		payloads = append(payloads, t.payload)
	}
	if len(live) == 0 {
		return
	}
	g.mBatchSize.Observe(int64(len(live)))
	start := time.Now()
	results, err := be.Execute(payloads)
	g.mLatency.ObserveDuration(time.Since(start))
	if err == nil && len(results) != len(live) {
		err = fmt.Errorf("serving: backend returned %d results for %d fused requests", len(results), len(live))
	}
	for i, t := range live {
		wait := now.Sub(t.enqueued)
		switch {
		case err != nil:
			g.mErrors.Inc()
			g.finish(t, Response{Err: err, QueueWait: wait, Shard: t.shard})
		case results[i].Err != nil:
			g.mErrors.Inc()
			g.finish(t, Response{Err: results[i].Err, QueueWait: wait, Shard: t.shard})
		default:
			g.mServed.Inc()
			g.finish(t, Response{Value: results[i].Value, QueueWait: wait, Shard: t.shard})
		}
	}
}

// finish delivers r to t's caller, or — when the caller abandoned the
// wait — recycles the task from the worker side so the pooled struct
// (and its payload references) cannot leak under sustained cancellation.
func (g *Group) finish(t *task, r Response) {
	if t.claim() {
		t.resp <- r
		return
	}
	g.mAbandoned.Inc()
	recycle(t)
}
