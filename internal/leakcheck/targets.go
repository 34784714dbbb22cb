package leakcheck

import (
	"errors"

	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/oram"
)

// errInt8Inactive reports that an int8 audit target fell back to float32.
var errInt8Inactive = errors.New("leakcheck: int8 gate rejected the seeded decoder; dhe-int8 target would not exercise the quantized path")

// Standard factories for the repository's generators. All run
// single-threaded: the Tracer is not synchronized, and a serialized batch
// keeps traces comparable position-by-position.

// TechniqueFactory audits one core technique built through core.New, fresh
// from seed for each panel input.
func TechniqueFactory(tech core.Technique, rows, dim int, seed int64) Factory {
	return Factory{
		Name:   tech.Key(),
		Rows:   rows,
		Secure: tech.Secure(),
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			return core.New(tech, rows, dim, core.Options{Seed: seed, Tracer: tr, Threads: 1})
		},
	}
}

// Int8DHEFactory audits the quantized DHE hot path: same dense decoder
// sweep as plain DHE, but the inner product runs the int8 kernels (AVX2
// where available, SWAR elsewhere). Construction fails loudly if the quantized path did not
// actually engage (a silently-float "dhe-int8" target would audit nothing).
func Int8DHEFactory(rows, dim int, seed int64) Factory {
	return Factory{
		Name:   "dhe-int8",
		Rows:   rows,
		Secure: true,
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			g, err := core.New(core.DHE, rows, dim, core.Options{
				Seed: seed, Tracer: tr, Threads: 1, Int8: true,
			})
			if err != nil {
				return nil, err
			}
			if !core.Int8Active(g) {
				return nil, errInt8Inactive
			}
			return g, nil
		},
	}
}

// DualFactory audits the §IV-D hybrid: a DHE plus a Circuit ORAM
// materialized from it, dispatched on the (public) batch size. Whether the
// panel exercises the DHE or the ORAM path depends only on the panel's
// batch size relative to threshold — by design never on the ids — so a
// single panel audits one regime; run it once below and once above the
// threshold to cover both.
func DualFactory(rows, dim, threshold int, seed int64) Factory {
	return Factory{
		Name:   "dual",
		Rows:   rows,
		Secure: true,
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			return core.NewByKey("dual", rows, dim, threshold, core.Options{Seed: seed, Tracer: tr, Threads: 1})
		},
	}
}

// circuitRecRows puts a table past Circuit ORAM's recursion cutoff, so its
// position map is itself an ORAM.
const circuitRecRows = 2 * oram.DefaultCircRecursionCutoff

// CircuitRecFactory audits Circuit ORAM with a recursive position map. The
// rest of the roster shares one small table that sits below the cutoff, so
// this is the only target whose trace holds a nested ".pm1" controller —
// and MustTouch fails the run if a raised cutoff ever stops it recursing.
func CircuitRecFactory(dim int, seed int64) Factory {
	f := TechniqueFactory(core.CircuitORAM, circuitRecRows, dim, seed)
	f.Name, f.MustTouch = "circuit-rec", ".pm1"
	return f
}

// StandardFactories returns the full audit roster for one table shape: the
// leaky baseline (negative control) plus every oblivious technique,
// including the batched scan variant.
func StandardFactories(rows, dim int, seed int64) []Factory {
	return []Factory{
		TechniqueFactory(core.Lookup, rows, dim, seed),
		TechniqueFactory(core.LinearScan, rows, dim, seed),
		TechniqueFactory(core.LinearScanBatched, rows, dim, seed),
		TechniqueFactory(core.PathORAM, rows, dim, seed),
		TechniqueFactory(core.CircuitORAM, rows, dim, seed),
		TechniqueFactory(core.DHE, rows, dim, seed),
	}
}
