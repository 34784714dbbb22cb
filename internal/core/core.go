// Package core is the library's public surface for secure embedding
// generation — the paper's central contribution. It provides one Generator
// interface with six implementations spanning Figure 2's taxonomy and
// §IV-A's protection techniques, plus the §IV-D Dual that dispatches
// between two of them (NewByKey resolves all seven by key):
//
//   - Lookup: the non-secure storage baseline (direct table indexing).
//     Its access pattern leaks the index (§III); it exists as the
//     performance baseline and the attack target.
//   - LinearScan / LinearScanBatched: storage + oblivious full-table scan
//     (§IV-A1), one table pass per query or one per worker for its share
//     of the batch.
//   - PathORAM / CircuitORAM: storage + tree-ORAM protection (§IV-A2).
//   - DHE: compute-based generation with input-independent access
//     patterns (§IV-A3).
//
// Every generator can carry a memtrace.Tracer; the test suite uses it to
// verify the security matrix of Table II: deterministic traces for
// LinearScan/DHE, randomized-but-independent traces for the ORAMs, and a
// leaky trace for Lookup.
package core

import (
	"fmt"

	"secemb/internal/dhe"
	"secemb/internal/memtrace"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// Technique identifies an embedding generation method.
type Technique int

const (
	// Lookup is the non-secure direct table lookup.
	Lookup Technique = iota
	// LinearScan obliviously scans the whole table per query.
	LinearScan
	// PathORAM protects the table with Path ORAM.
	PathORAM
	// CircuitORAM protects the table with Circuit ORAM.
	CircuitORAM
	// DHE computes embeddings with Deep Hash Embedding.
	DHE
	// LinearScanBatched is the batch-amortized scan variant: one table
	// stream per worker's share of the batch instead of one per query
	// (this repository's scan ablation; same masked work and security
	// argument as LinearScan).
	LinearScanBatched
)

// String names the technique as in the paper's tables.
func (t Technique) String() string {
	switch t {
	case Lookup:
		return "Index Lookup (non-secure)"
	case LinearScan:
		return "Linear Scan"
	case PathORAM:
		return "Path ORAM"
	case CircuitORAM:
		return "Circuit ORAM"
	case DHE:
		return "DHE"
	case LinearScanBatched:
		return "Linear Scan (batched)"
	}
	return "unknown"
}

// Key is the short stable identifier used for CLI flags and metric labels
// ("lookup", "scan", "path", "circuit", "dhe").
func (t Technique) Key() string {
	switch t {
	case Lookup:
		return "lookup"
	case LinearScan:
		return "scan"
	case PathORAM:
		return "path"
	case CircuitORAM:
		return "circuit"
	case DHE:
		return "dhe"
	case LinearScanBatched:
		return "scanb"
	}
	return "unknown"
}

// ParseTechnique resolves a Key back to its Technique.
func ParseTechnique(key string) (Technique, error) {
	for _, t := range []Technique{Lookup, LinearScan, LinearScanBatched, PathORAM, CircuitORAM, DHE} {
		if t.Key() == key {
			return t, nil
		}
	}
	return 0, fmt.Errorf("core: unknown technique %q", key)
}

// Secure reports whether the technique hides the query index (Table II).
func (t Technique) Secure() bool { return t != Lookup }

// Generator produces embeddings for batches of categorical feature values.
//
// Generate returns a len(ids)×Dim() matrix whose r-th row is the embedding
// of ids[r], or an error wrapping ErrIDOutOfRange when the batch contains
// an id beyond the table cardinality — malformed requests are answerable,
// never fatal. Implementations must keep their memory access pattern
// independent of the id values (except Lookup, by design).
//
// Every implementation reuses its output storage: the returned matrix is
// valid until the generator's next Generate call, and callers that retain
// a result across calls must copy it. A generator serves one Generate at
// a time; concurrent callers need replicas.
type Generator interface {
	// Generate embeds a batch of secret feature ids; the ids must never
	// influence control flow or addresses (Lookup excepted, by design).
	//
	// secemb:secret ids
	Generate(ids []uint64) (*tensor.Matrix, error)
	// Rows is the table cardinality (for DHE: the virtual table size).
	Rows() int
	// Dim is the embedding dimension.
	Dim() int
	// Technique identifies the protection method.
	Technique() Technique
	// NumBytes is the resident memory footprint of the representation.
	NumBytes() int64
}

// Options configures generator construction.
type Options struct {
	// Threads is the worker count for batch generation, fixed at
	// construction (0 = up to all CPUs, as tensor.ParallelRows and the
	// installed TuneConfig allow; the ORAMs are sequential regardless).
	Threads int
	// Seed fixes the default table's rows and an untrained DHE's
	// weights; ORAM randomness comes from crypto/rand.
	Seed   int64
	Tracer *memtrace.Tracer
	Region string // trace region prefix; "" → technique-specific default

	// Obs, when non-nil, wraps the constructed generator with Instrument
	// so every Generate is counted and timed (per-technique families).
	Obs *obs.Registry

	// Table supplies the backing weights for the storage techniques
	// (Lookup/LinearScan/LinearScanBatched/PathORAM/CircuitORAM) when
	// constructing through New. nil → a Gaussian table is initialized from
	// Seed. Lookup reads it in place; the scans and ORAMs copy it at
	// construction, so later writes to it do not reach them.
	Table *tensor.Matrix

	// DHE supplies a (possibly trained) network for the DHE technique when
	// constructing through New. nil → an untrained network per DHEArch.
	DHE *dhe.DHE

	// DHEArch selects the architecture sizing when DHE is nil
	// (default ArchVaried, Table IV's size-scaled design).
	DHEArch DHEArch

	// Int8 requests the quantized (int8) decoder hot path for the DHE
	// technique. The swap is gated: construction quantizes the decoder,
	// replays a fixed public eval batch through both paths, and keeps int8
	// only when the max-abs output error stays within
	// dhe.DefaultInt8MaxAbsErr — otherwise serving silently continues on
	// float32 (the fallback is visible via Int8Active and, with Obs set, the
	// dhe_int8_* counters).
	Int8 bool
}

func (o Options) region(def string) string {
	if o.Region != "" {
		return o.Region
	}
	return def
}
