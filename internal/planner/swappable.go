package planner

import (
	"sync"
	"sync/atomic"
	"time"

	"secemb/internal/core"
	"secemb/internal/tensor"
)

// served is one technique's lifetime service totals at one swap point:
// batches, ids and elapsed nanoseconds. Counts and clocks only — the
// planner's whole view of traffic — and monotone, because the swap point
// owns them and never resets them.
type served struct {
	calls, ids, ns atomic.Int64
}

func (c *served) record(batch int, elapsed time.Duration) {
	c.calls.Add(1)
	c.ids.Add(int64(batch))
	c.ns.Add(int64(elapsed))
}

// genBox is the unit of atomic installation: one immutable holder per
// installed generator, so a single pointer swap switches every subsequent
// Generate to the new representation and to its technique's counters.
type genBox struct {
	gen    core.Generator
	served *served
}

// Swappable is the hot-swap point the planner installs behind a serving
// backend: a core.Generator whose underlying implementation can be replaced
// atomically while requests are in flight.
//
// The lifecycle is prepare → install → drain. The planner prepares a fresh
// generator in the background (serving traffic never waits on
// construction), Install publishes it with one atomic pointer swap, and
// then blocks until every Generate that loaded the old generator has
// returned — at which point the old representation is quiescent and
// Install hands it back for release. Requests admitted after the swap run
// on the new generator; requests already executing finish on the old one;
// none are dropped.
//
// Swappable adds swap-safety, not execution concurrency: like every other
// Generator, one Swappable serves one Generate at a time per serving
// worker, and the dispatch layer's one-worker-per-backend rule is what
// keeps the inner generator single-threaded. The drain barrier is a
// read-write lock rather than a bare atomic so that Install's hand-back
// guarantee holds even for callers outside the serving stack.
//
// Swappable is also where the planner measures: every Generate is counted
// and timed against the installed technique, and the sampler windows those
// totals per shard.
type Swappable struct {
	mu    sync.RWMutex // readers: Generate; writer: Install's drain barrier
	cur   atomic.Pointer[genBox]
	swaps atomic.Int64

	byTechMu sync.Mutex // guards the map, not the counters in it
	byTech   map[core.Technique]*served
}

// NewSwappable wraps the initial generator. The planner (or tests) install
// replacements later; callers use the Swappable wherever a Generator is
// expected.
func NewSwappable(initial core.Generator) *Swappable {
	if initial == nil {
		panic("planner: NewSwappable needs a non-nil initial generator")
	}
	s := &Swappable{byTech: map[core.Technique]*served{}}
	s.cur.Store(s.box(initial))
	return s
}

// servedBy returns tech's counters at this swap point, creating them on
// first use.
func (s *Swappable) servedBy(tech core.Technique) *served {
	s.byTechMu.Lock()
	defer s.byTechMu.Unlock()
	c, ok := s.byTech[tech]
	if !ok {
		c = &served{}
		s.byTech[tech] = c
	}
	return c
}

func (s *Swappable) box(g core.Generator) *genBox {
	return &genBox{gen: g, served: s.servedBy(g.Technique())}
}

// Generate forwards the batch to the currently installed generator and
// records it — one call, len(ids) ids, the elapsed time — against the
// installed technique. The read-lock spans the call so Install's drain
// barrier can wait out in-flight batches; the generator pointer itself is
// read with one atomic load, so steady-state overhead is a lock-free RLock,
// a pointer read, two clock reads and three atomic adds. What is recorded
// depends on the batch's size and duration, never on an id.
//
// secemb:secret ids
// secemb:audit planner
func (s *Swappable) Generate(ids []uint64) (*tensor.Matrix, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	box := s.cur.Load()
	start := time.Now()
	out, err := box.gen.Generate(ids)
	box.served.record(len(ids), time.Since(start))
	return out, err
}

// Install atomically publishes g as the serving generator and returns the
// previous one once it is fully drained (no Generate is still executing on
// it). The returned generator is safe to release, inspect, or retire.
func (s *Swappable) Install(g core.Generator) core.Generator {
	if g == nil {
		panic("planner: Install needs a non-nil generator")
	}
	old := s.cur.Swap(s.box(g))
	// Drain barrier: every in-flight Generate that loaded old holds the
	// read lock; acquiring the write lock waits them all out. Generates
	// admitted after the pointer swap run on g and are unaffected.
	s.mu.Lock()
	s.mu.Unlock() //lint:ignore SA2001 empty critical section is the drain barrier
	s.swaps.Add(1)
	return old.gen
}

// Swaps reports how many Install calls have completed.
func (s *Swappable) Swaps() int64 { return s.swaps.Load() }

// Rows reports the current generator's table cardinality.
func (s *Swappable) Rows() int { return s.cur.Load().gen.Rows() }

// Dim reports the embedding dimension.
func (s *Swappable) Dim() int { return s.cur.Load().gen.Dim() }

// Technique reports the currently installed technique — it changes when
// the planner swaps, which is exactly what planner_active_technique
// gauges.
func (s *Swappable) Technique() core.Technique { return s.cur.Load().gen.Technique() }

// NumBytes reports the current representation's resident footprint.
func (s *Swappable) NumBytes() int64 { return s.cur.Load().gen.NumBytes() }

// Unwrap exposes the currently installed generator so core's type-probing
// helpers (Underlying, ORAMStats) keep working through the swap point.
func (s *Swappable) Unwrap() core.Generator { return s.cur.Load().gen }
