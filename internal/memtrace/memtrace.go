// Package memtrace records block-granular memory access traces and checks
// them for secret-independence.
//
// The paper's security argument (§V-B, Table II) is that each protected
// embedding generator's memory access pattern either (a) is identical for
// every secret input (linear scan, DHE) or (b) is randomized such that its
// distribution is independent of the access sequence (tree ORAM). Instead of
// trusting an ISA-level implementation, this repository attaches a Tracer to
// each generator's protected memory and the test suite asserts those two
// properties directly: trace equality across secrets for deterministic
// schemes, and uniformity of ORAM path choices for randomized schemes.
//
// Blocks are abstract: callers choose the granularity (an embedding-table
// row, an ORAM tree bucket, a cache line). The paper notes (§III-A2) that
// real embedding rows span at least one cache line, so row granularity is
// what an LLC attacker observes.
package memtrace

import (
	"fmt"
)

// Op distinguishes reads from writes in a trace.
type Op uint8

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "W"
	}
	return "R"
}

// Access is one block-granular memory touch. Region identifies the logical
// memory object (table, tree, stash, position map) so traces from
// multi-structure schemes like ORAM remain interpretable.
type Access struct {
	Region string
	Block  int64
	Op     Op
}

func (a Access) String() string {
	return fmt.Sprintf("%s@%s[%d]", a.Op, a.Region, a.Block)
}

// Trace is an ordered sequence of accesses.
type Trace []Access

// Equal reports whether two traces are element-wise identical — the
// determinism property required of linear scan and DHE.
func (t Trace) Equal(u Trace) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// FirstDiff returns the index of the first differing access, or -1 when the
// traces are equal. Length differences report the shorter length.
func (t Trace) FirstDiff(u Trace) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return i
		}
	}
	if len(t) != len(u) {
		return n
	}
	return -1
}

// Tracer accumulates a Trace. The zero value is a disabled tracer: all
// Touch calls are cheap no-ops until Enable is called, so production paths
// can carry an optional *Tracer without overhead concerns. A nil *Tracer is
// also safe to Touch.
type Tracer struct {
	enabled bool
	trace   Trace
}

// NewEnabled returns a Tracer that records immediately.
func NewEnabled() *Tracer {
	t := &Tracer{}
	t.Enable()
	return t
}

// Enable starts recording.
func (t *Tracer) Enable() { t.enabled = true }

// Enabled reports whether the tracer is recording. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Reset discards the accumulated trace.
func (t *Tracer) Reset() {
	if t != nil {
		t.trace = t.trace[:0]
	}
}

// Touch records one access. Nil-safe and a no-op when disabled. The block
// address is the secret-bearing operand: recording it is the tracer's
// entire purpose (the trace is the audit artifact cmd/leakcheck replays),
// so the parameter is declared secret instead of waiving every call site.
//
// secemb:secret block
func (t *Tracer) Touch(region string, block int64, op Op) {
	if t == nil || !t.enabled {
		return
	}
	t.trace = append(t.trace, Access{Region: region, Block: block, Op: op})
}

// TouchRange records sequential accesses to blocks [lo, hi) of region.
func (t *Tracer) TouchRange(region string, lo, hi int64, op Op) {
	if t == nil || !t.enabled {
		return
	}
	for b := lo; b < hi; b++ {
		t.trace = append(t.trace, Access{Region: region, Block: b, Op: op})
	}
}

// Snapshot returns a copy of the trace recorded so far.
func (t *Tracer) Snapshot() Trace {
	if t == nil {
		return nil
	}
	out := make(Trace, len(t.trace))
	copy(out, t.trace)
	return out
}
