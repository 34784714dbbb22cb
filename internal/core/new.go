package core

import (
	"fmt"
	"math"
	"math/rand"

	"secemb/internal/dhe"
	"secemb/internal/tensor"
)

// rowSource writes row r of a table into dst as float32 bit patterns.
// Its callers ask for rows 0, 1, … in order, each once.
type rowSource func(r int, dst []uint32)

// rowSource reads Table when it is set, and otherwise draws the rows of
// tensor.NewGaussian(rows, dim, 0.02, rand.New(rand.NewSource(Seed)))
// in that function's rng order, so the scans and ORAMs pack the bits
// Lookup holds without building the float table first.
func (o Options) rowSource() rowSource {
	if t := o.Table; t != nil {
		return func(r int, dst []uint32) {
			for c, v := range t.Row(r) {
				dst[c] = math.Float32bits(v)
			}
		}
	}
	rng := rand.New(rand.NewSource(o.Seed))
	return func(_ int, dst []uint32) {
		for c := range dst {
			dst[c] = math.Float32bits(float32(rng.NormFloat64() * 0.02))
		}
	}
}

// DHEArch selects the architecture-sizing policy when New builds an
// untrained DHE (Options.DHE == nil).
type DHEArch int

const (
	// ArchVaried scales the network with the virtual table size (Table IV).
	ArchVaried DHEArch = iota
	// ArchUniform is the fixed k=1024, 512-256-dim decoder of Table IV.
	ArchUniform
	// ArchLLM is the token-embedding architecture used for the LLM studies.
	ArchLLM
)

// New is the single construction entry point for every technique: it
// validates shape inputs, materializes defaults (a Gaussian table, an
// untrained DHE) when Options doesn't supply representations, and — when
// Options.Obs is set — returns the generator pre-wrapped with Instrument.
//
// This is the v1 surface: the per-technique constructors that predated it
// were removed; Options carries everything technique-specific (Table for
// the storage techniques, DHE/DHEArch for DHE).
func New(tech Technique, rows, dim int, opts Options) (Generator, error) {
	if rows <= 0 || dim <= 0 {
		return nil, fmt.Errorf("core: invalid shape %dx%d for %v", rows, dim, tech)
	}
	var g Generator
	switch tech {
	case DHE:
		d := opts.DHE
		if d == nil {
			rng := rand.New(rand.NewSource(opts.Seed))
			switch opts.DHEArch {
			case ArchUniform:
				d = dhe.New(dhe.UniformConfig(dim, opts.Seed), rng)
			case ArchLLM:
				d = dhe.New(dhe.LLMConfig(dim, opts.Seed), rng)
			default:
				d = dhe.New(dhe.VariedConfig(dim, rows, opts.Seed), rng)
			}
		}
		if d.Dim != dim {
			return nil, fmt.Errorf("core: DHE dim %d != requested dim %d", d.Dim, dim)
		}
		g = newDHEGen(d, rows, opts)
	case Lookup, LinearScan, LinearScanBatched, PathORAM, CircuitORAM:
		if t := opts.Table; t != nil && (t.Rows != rows || t.Cols != dim) {
			return nil, fmt.Errorf("core: table shape %dx%d != requested %dx%d",
				t.Rows, t.Cols, rows, dim)
		}
		switch tech {
		case Lookup:
			table := opts.Table
			if table == nil {
				table = tensor.NewGaussian(rows, dim, 0.02, rand.New(rand.NewSource(opts.Seed)))
			}
			g = newLookupGen(table, opts)
		case LinearScan, LinearScanBatched:
			g = newScanGen(tech, packTable(rows, dim, opts.rowSource()), opts)
		case PathORAM, CircuitORAM:
			g = newORAMGen(rows, dim, tech, opts)
		}
	default:
		return nil, fmt.Errorf("core: unknown technique %v", tech)
	}
	if opts.Obs != nil {
		g = Instrument(g, opts.Obs)
	}
	return g, nil
}

// NewByKey resolves a technique key as the command lines spell it. "dual"
// is the §IV-D hybrid — a DHE built per opts plus the Circuit ORAM NewDual
// materializes from it, dispatching at dualThreshold; every other key is a
// Technique.Key handed to New (dualThreshold unused).
func NewByKey(key string, rows, dim, dualThreshold int, opts Options) (Generator, error) {
	if key != "dual" {
		tech, err := ParseTechnique(key)
		if err != nil {
			return nil, err
		}
		return New(tech, rows, dim, opts)
	}
	dheGen, err := New(DHE, rows, dim, opts)
	if err != nil {
		return nil, err
	}
	return NewDual(dheGen, dualThreshold, opts), nil
}

// MustNew is New for programmer-supplied shapes: a construction failure is
// a config bug, not request data, so it panics instead of returning an
// error. Examples, benchmarks and tests use it; services validating
// untrusted configuration call New.
func MustNew(tech Technique, rows, dim int, opts Options) Generator {
	g, err := New(tech, rows, dim, opts)
	if err != nil {
		panic(err)
	}
	return g
}
