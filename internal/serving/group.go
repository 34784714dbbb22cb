package serving

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"secemb/internal/obs"
)

// CoalesceConfig shapes the scheduler layer's micro-batching. How many
// requests fuse into one backend execution is each backend's own MaxBatch;
// a backend with cap 1 is the per-request baseline.
type CoalesceConfig struct {
	// MaxWait is the longest a partial batch may be held for co-batching
	// before it flushes. It is an upper bound, not a fixed delay: the hold
	// is armed only while arrivals on the shard are dense enough to fill
	// it (smoothed gap between admissions under two MaxWaits, i.e. another
	// request is likely inside the window); a sparser shard flushes as
	// soon as its queue is empty. A shard with no arrival history yet
	// holds. 0 is greedy mode: fuse whatever is already queued and flush
	// immediately — no added latency, batches form under backpressure
	// alone.
	MaxWait time.Duration
}

// GroupConfig shapes the dispatch layer.
type GroupConfig struct {
	// Shards is the number of replica groups requests are routed across
	// (consistent key→shard routing). Backends are assigned to shards
	// round-robin, so Shards must not exceed len(backends); 0 means one
	// shard per backend.
	Shards int
	// QueueDepth bounds each shard's admission queue. 0 derives a depth
	// from the shard's worker count and batch cap.
	QueueDepth int
	// Coalesce configures the scheduler layer.
	Coalesce CoalesceConfig
	// ShedWait arms degraded-mode load shedding: when a shard's queue is
	// saturated, Do blocks at most this long for space before dropping
	// the request with ErrQueueFull. 0 keeps classic backpressure — Do
	// blocks until space or the request's own deadline.
	ShedWait time.Duration
}

// Group is the dispatch layer: sharded replica groups over a set of
// Backends. Requests route to a shard by key (consistently — the same key
// always lands on the same shard, which is what lets stateful backends
// like LLM KV-cache sessions pin to a replica), wait in the shard's
// bounded queue, and are fused into backend batches by the shard's
// coalescing workers.
type Group struct {
	shards   []*shard
	shedWait time.Duration

	lifecycle sync.RWMutex // guards closed + queue sends vs Close
	closed    bool

	wg sync.WaitGroup

	// reg holds the group's metrics: the WithObserver registry, or a
	// private one. They are its only record of what it served.
	reg           *obs.Registry
	mQueueDepth   *obs.Gauge
	mBatchSize    *obs.Histogram
	mFlush        [numFlushCauses]*obs.Counter
	mCoalesceWait *obs.Histogram
	mLatency      *obs.Histogram
	mServed       *obs.Counter
	mErrors       *obs.Counter
	mCanceled     *obs.Counter
	mAbandoned    *obs.Counter
	mShed         *obs.Counter
}

// shard is one replica group: a bounded queue drained by one coalescing
// worker per assigned backend.
type shard struct {
	queue    chan *task
	arrivals arrivals   // admission-clock density estimate; gates the hold
	depth    *obs.Gauge // serving_shard_depth{shard=i}; nil-safe
	backends []Backend  // replicas assigned to this shard, in worker order
}

// Option configures a Group at construction.
type Option func(*Group)

// WithObserver registers the group's metrics in reg instead of a private
// registry, so they reach its snapshot and /metrics:
//
//	serving_queue_depth            requests queued across all shards (gauge)
//	serving_shard_depth{shard=}    requests queued per shard (gauge)
//	serving_batch_size             fused requests per backend execution
//	serving_flush_total{cause=}    batches flushed, by why: full (batch cap),
//	                               drained (queue empty, no hold armed),
//	                               deadline (hold ran out), closed (drain)
//	serving_coalesce_wait_ns       admission-to-flush wait per request
//	serving_latency_ns             fused backend execution latency
//	serving_served_total           successful responses
//	serving_errors_total           responses carrying an error
//	serving_canceled_total         requests canceled before execution
//	serving_abandoned_total        responses whose caller stopped listening
//	serving_shed_total             requests dropped by load shedding
func WithObserver(reg *obs.Registry) Option {
	return func(g *Group) { g.reg = reg }
}

func batchSizeBuckets() []int64 {
	bounds := make([]int64, 0, 12)
	for b := int64(1); b <= 2048; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// NewGroup starts the serving stack: cfg.Shards replica groups over the
// given backends, each backend driven by its own coalescing worker on its
// shard's queue. Backends hold mutable state (ORAM position maps, DHE
// inference buffers), so they must not be shared between groups.
func NewGroup(backends []Backend, cfg GroupConfig, opts ...Option) *Group {
	if len(backends) == 0 {
		panic("serving: need at least one backend")
	}
	if cfg.Shards == 0 {
		cfg.Shards = len(backends)
	}
	if cfg.Shards < 1 || cfg.Shards > len(backends) {
		panic(fmt.Sprintf("serving: %d shards for %d backends (need 1 ≤ shards ≤ backends)", cfg.Shards, len(backends)))
	}
	g := &Group{shedWait: cfg.ShedWait}
	for _, o := range opts {
		o(g)
	}
	if g.reg == nil {
		g.reg = obs.NewRegistry()
	}
	reg := g.reg
	g.mQueueDepth = reg.Gauge("serving_queue_depth")
	g.mBatchSize = reg.HistogramBuckets("serving_batch_size", batchSizeBuckets())
	for c, name := range flushCauseNames {
		g.mFlush[c] = reg.Counter("serving_flush_total", "cause", name)
	}
	g.mCoalesceWait = reg.Histogram("serving_coalesce_wait_ns")
	g.mLatency = reg.Histogram("serving_latency_ns")
	g.mServed = reg.Counter("serving_served_total")
	g.mErrors = reg.Counter("serving_errors_total")
	g.mCanceled = reg.Counter("serving_canceled_total")
	g.mAbandoned = reg.Counter("serving_abandoned_total")
	g.mShed = reg.Counter("serving_shed_total")

	perShard := (len(backends) + cfg.Shards - 1) / cfg.Shards
	maxBatch := 1
	for _, be := range backends {
		if mb := effectiveMaxBatch(be); mb > maxBatch {
			maxBatch = mb
		}
	}
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 2 * perShard * maxBatch
		if depth < 16 {
			depth = 16
		}
	}
	g.shards = make([]*shard, cfg.Shards)
	for i := range g.shards {
		g.shards[i] = &shard{
			queue: make(chan *task, depth),
			depth: g.reg.Gauge("serving_shard_depth", "shard", strconv.Itoa(i)),
		}
	}
	for i, be := range backends {
		s := g.shards[i%cfg.Shards]
		s.backends = append(s.backends, be)
		g.wg.Add(1)
		go g.worker(s, be, cfg.Coalesce)
	}
	return g
}

// ShardBackends reports the backend replicas assigned to shard i — the
// shard→replica map a per-shard planner needs to manage each replica group
// as its own plan (planner.Table.Shards mirrors this assignment). The
// returned slice is a copy; the assignment itself is fixed at construction
// (round-robin, backend i on shard i % Shards) and stable for the group's
// lifetime.
func (g *Group) ShardBackends(i int) []Backend {
	if i < 0 || i >= len(g.shards) {
		return nil
	}
	return append([]Backend(nil), g.shards[i].backends...)
}

func effectiveMaxBatch(be Backend) int { return max(be.MaxBatch(), 1) }

// splitmix64 is the routing hash: cheap, well-mixed, and keyed only on the
// caller-supplied (public) routing key.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RouteShard reports which of n shards a routing key maps to. It is the
// pure form of Group.ShardOf for callers that must know the placement
// before the group exists — e.g. to size each shard's backend by the
// number of keys that will pin to it.
func RouteShard(key uint64, n int) int {
	return int(splitmix64(key) % uint64(n))
}

// ShardOf reports which shard a routing key maps to — stable for the
// group's lifetime, so callers can pin per-key state (e.g. an LLM session
// created on that shard's pipeline) to the replica that will serve it.
func (g *Group) ShardOf(key uint64) int {
	return RouteShard(key, len(g.shards))
}

// Shards reports the shard count.
func (g *Group) Shards() int { return len(g.shards) }

// Do submits one request payload routed by key and waits for its
// response. With ShedWait unset it blocks for queue space (bounded by the
// request's own context); with ShedWait armed a saturated shard sheds the
// request with ErrQueueFull after that grace period — degraded mode under
// overload instead of unbounded queueing.
func (g *Group) Do(ctx context.Context, key uint64, payload any) Response {
	t := newTask(ctx, key, payload)
	if r, ok := g.enqueue(t); !ok {
		return r
	}
	return t.wait(t.ctx)
}

// enqueue routes t to its shard and admits it. The caller keeps waiting
// on the task only when ok is true; otherwise the returned Response is
// final and the task has been recycled.
func (g *Group) enqueue(t *task) (Response, bool) {
	t.shard = g.ShardOf(t.key)
	s := g.shards[t.shard]
	// Hold the lifecycle read-lock across the send so Close cannot close
	// the queue mid-send.
	g.lifecycle.RLock()
	if g.closed {
		g.lifecycle.RUnlock()
		shard := t.shard
		recycle(t)
		return Response{Err: ErrClosed, Shard: shard}, false
	}
	t.enqueued = time.Now()
	s.arrivals.observe(t.enqueued)
	select {
	case s.queue <- t:
		return g.admit(s)
	default:
	}
	// Saturated. Without ShedWait the grace channel stays nil and never
	// fires: the send waits for space or the caller's own context.
	var grace <-chan time.Time
	if g.shedWait > 0 {
		timer := time.NewTimer(g.shedWait)
		defer timer.Stop()
		grace = timer.C
	}
	select {
	case s.queue <- t:
		return g.admit(s)
	case <-t.ctx.Done():
		g.lifecycle.RUnlock()
		err, shard := t.ctx.Err(), t.shard
		recycle(t)
		return Response{Err: err, Shard: shard}, false
	case <-grace:
		return g.shedTask(t), false
	}
}

// admit accounts a task its shard's queue accepted. Called with the
// lifecycle read-lock held; releases it.
func (g *Group) admit(s *shard) (Response, bool) {
	s.depth.Add(1)
	g.mQueueDepth.Add(1)
	g.lifecycle.RUnlock()
	return Response{}, true
}

// shedTask drops a request in degraded mode: the shard stayed saturated,
// so the request is counted and refused rather than queued unboundedly.
// Called with the lifecycle read-lock held; releases it.
func (g *Group) shedTask(t *task) Response {
	g.lifecycle.RUnlock()
	g.mShed.Inc()
	shard := t.shard
	recycle(t)
	return Response{Err: ErrQueueFull, Shard: shard}
}

// Stats counts the requests the group has answered so far, by outcome.
type Stats struct {
	Served    int // successful responses
	Errors    int // responses carrying a backend error
	Shed      int // requests dropped by load shedding
	Abandoned int // responses whose caller stopped listening
}

// Stats reads the group's serving_*_total counters. Groups that share one
// WithObserver registry share these counters, so each reports their sum —
// as their /metrics lines already do.
func (g *Group) Stats() Stats {
	return Stats{
		Served:    int(g.mServed.Value()),
		Errors:    int(g.mErrors.Value()),
		Shed:      int(g.mShed.Value()),
		Abandoned: int(g.mAbandoned.Value()),
	}
}

// Close gracefully drains the stack: new requests are rejected, every
// already-admitted request is still fused and served (partial batches
// flush), and the workers exit once the queues are empty.
func (g *Group) Close() {
	g.lifecycle.Lock()
	if g.closed {
		g.lifecycle.Unlock()
		return
	}
	g.closed = true
	for _, s := range g.shards {
		close(s.queue)
	}
	g.lifecycle.Unlock()
	g.wg.Wait()
}
