// Package serving is the layered, workload-agnostic serving stack for the
// secure embedding pipelines:
//
//   - Backend layer: a Backend executes one *fused* batch of opaque request
//     payloads (internal/serving/backends adapts dlrm.Pipeline,
//     llm.Pipeline prefill/decode, and bare core.Generator instances).
//   - Scheduler layer: a micro-batching coalescer fuses queued requests
//     into one backend batch under a public flush policy (max-batch or
//     max-wait, per-request deadlines honored) — the lever behind every
//     batch-amortized latency claim in the paper: DHE's O(k²) compute
//     beats memory-bound scans *because* one fused batch shares the
//     encoder work (Fig. 5/13), and the §IV-D Dual scheme dispatches on
//     exactly the batch sizes the coalescer produces.
//   - Dispatch layer: sharded replica groups with consistent request→shard
//     routing, per-shard queues, graceful drain, and degraded-mode load
//     shedding once a shard's queue saturates.
//
// Accounting: each event is recorded once, in the group's serving_* obs
// metrics (WithObserver's registry, or a private one); Group.Stats reads
// its counts from those same counters.
//
// Security: the scheduler never inspects payloads. Batch composition —
// which requests fuse, and into batches of what size — depends only on
// arrival order, queue counts, and the clock, never on embedded ids
// (§V-B: batch sizes are public in the threat model; the ids are not).
// The coalescer is audited dynamically in the leakcheck roster
// ("coalesce") and its flush policy is structurally id-blind: the gather
// loop only ever reads counts, clocks, and deadlines — payloads stay
// opaque `any` values it copies into the fused slice.
package serving

import (
	"errors"
	"time"
)

// Result is one per-request outcome of a fused Backend execution.
type Result struct {
	// Value is the request's slice of the fused output (backend-defined
	// type, e.g. a 1-row probability matrix for DLRM rows).
	Value any
	// Err is a per-request failure (malformed payload, out-of-range id).
	Err error
}

// Backend executes fused batches of request payloads. Implementations are
// stateful (ORAM position maps, DHE inference buffers, KV caches) and are
// therefore driven by exactly one scheduler goroutine at a time; the
// dispatch layer never shares a Backend between shards.
type Backend interface {
	// MaxBatch is the largest number of requests the backend accepts in
	// one Execute call, and so the largest batch the scheduler fuses for
	// it; 1 serves every request alone (below 1 counts as 1).
	MaxBatch() int
	// Execute runs one fused batch and returns exactly one Result per
	// payload, in payload order. A returned error is batch-wide (the
	// scheduler delivers it to every request in the batch); per-request
	// failures belong in the individual Results.
	Execute(payloads []any) ([]Result, error)
}

// Response carries one request's answer back to its caller. This is the
// v1 response surface: Value, Err, QueueWait and Shard are stable, and the
// wire layer (internal/wire) serializes QueueWait, Shard and Status()
// verbatim.
type Response struct {
	// Value is the backend-defined result (nil on error). Hot-path
	// backends may hand out views of fused outputs; see each backend's
	// ownership contract.
	Value any
	// Err is the request's failure, classified by Status()/StatusOf.
	Err error
	// QueueWait is the admission-to-flush wait: how long the request sat
	// in its shard queue (plus coalescing hold) before executing. Zero
	// when the request was refused at admission.
	QueueWait time.Duration
	// Shard is the replica group the routing key mapped to — always set,
	// even for refused requests, so callers can attribute shed load.
	Shard int
}

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serving: closed")

// ErrQueueFull is the degraded-mode load-shedding signal: the target
// shard's queue is saturated (and stayed saturated past the configured
// shed wait), so the request was dropped instead of queued. Callers
// retry against a healthier replica group or surface the overload.
var ErrQueueFull = errors.New("serving: shard queue saturated")
