// Package obs is a dependency-free observability layer for the secure
// embedding serving stack: atomic counters, gauges and fixed-bucket latency
// histograms, grouped into labeled metric families inside a Registry.
//
// Design rules, in the spirit of memtrace.Tracer:
//
//   - Everything is nil-safe. A nil *Registry hands out nil metrics whose
//     methods are no-ops, so instrumented code never branches on "is
//     observability on" — it just calls Observe/Inc unconditionally.
//   - Hot paths pay one atomic op per event. Metric lookup (map + lock)
//     happens once at wiring time; callers cache the returned pointers.
//   - Snapshots are deterministic: identical metric states render to
//     identical text/JSON, so benchmark runs double as telemetry fixtures.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, resident bytes).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (use negative deltas to decrement).
// Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value. Nil-safe (0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a process-wide collection of labeled metric families. The
// zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use, and safe on a nil receiver (returning nil metrics).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry used by instrumentation that is not
// wired to an explicit one.
var Default = NewRegistry()

// metricID renders "name{k="v",...}" with labels sorted by key, the
// canonical identity of one metric inside a family. Labels are alternating
// key, value pairs; a trailing key without a value gets "".
func metricID(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i < len(labels); i += 2 {
		v := ""
		if i+1 < len(labels) {
			v = labels[i+1]
		}
		pairs = append(pairs, kv{labels[i], v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter of the given name and
// label pairs. Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge of the given name and label
// pairs. Nil-safe.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating if needed) the latency histogram of the
// given name and label pairs, with the default nanosecond buckets.
// Nil-safe.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.HistogramBuckets(name, nil, labels...)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds
// (ascending). nil bounds selects DefaultLatencyBuckets. If the histogram
// already exists its original bounds are kept.
func (r *Registry) HistogramBuckets(name string, bounds []int64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[id]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[id] = h
	}
	return h
}
