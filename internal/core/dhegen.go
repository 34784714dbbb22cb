package core

import (
	"secemb/internal/dhe"
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

// dheGen adapts a dhe.DHE to the Generator interface. Its memory accesses
// are the dense sweeps of the decoder weights — the same blocks in the
// same order for every input — which the trace records at layer
// granularity so trace-equality tests cover DHE alongside the storage
// techniques.
type dheGen struct {
	d *dhe.DHE // original, training-capable instance (Underlying)
	// inf is a private inference clone: shared weights, private workspace
	// and caches. Generators built from one trained DHE (e.g. replica
	// pipelines of the same model) therefore never share mutable forward
	// state, and steady-state Generate is allocation-free. Its output
	// aliases the workspace — valid until this generator's next Generate.
	inf    *dhe.DHE
	rows   int
	tracer *memtrace.Tracer
	region string
}

func newDHEGen(d *dhe.DHE, rows int, opts Options) *dheGen {
	d.Threads = opts.Threads
	if opts.Int8 {
		// Quantize before cloning so the inference replica inherits the
		// (gate-approved) int8 decoder. A rejected gate leaves the float
		// path in place — serving degrades in speed, never in accuracy.
		rep := d.EnableInt8(dhe.Int8Gate{})
		if opts.Obs != nil {
			if rep.Enabled {
				opts.Obs.Counter("dhe_int8_enabled_total").Inc()
			} else {
				opts.Obs.Counter("dhe_int8_fallback_total").Inc()
			}
			var active int64
			if rep.Enabled {
				active = 1
			}
			opts.Obs.Gauge("dhe_int8_active").Set(active)
			opts.Obs.Gauge("dhe_int8_gate_err_micro").Set(int64(rep.MaxAbsErr * 1e6))
		}
	}
	inf := d.InferenceClone()
	inf.Threads = opts.Threads
	return &dheGen{d: d, inf: inf, rows: rows, tracer: opts.Tracer, region: opts.region("dhe")}
}

// Generate computes the batch through the DHE's dense forward pass.
//
// secemb:secret ids
// secemb:audit dhe dhe-int8
func (g *dheGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	if err := ValidateIDs(ids, g.rows); err != nil {
		return nil, err
	}
	if g.tracer.Enabled() {
		// One deterministic sweep over each decoder layer's weights per
		// batch: the block sequence is a function of the architecture
		// only, never of the ids. DecoderLayerBytes reports the *active*
		// representation (packed int8 or float32), so footprint sweeps see
		// the quantized sizes while the sequence stays id-independent.
		for li, bytes := range g.inf.DecoderLayerBytes() {
			blocks := (bytes + 63) / 64 // 64-byte lines
			g.tracer.TouchRange(g.region, int64(li)<<32, int64(li)<<32+blocks, memtrace.Read)
		}
	}
	return g.inf.Generate(ids), nil
}

func (g *dheGen) Rows() int            { return g.rows }
func (g *dheGen) Dim() int             { return g.d.Dim }
func (g *dheGen) Technique() Technique { return DHE }
func (g *dheGen) NumBytes() int64      { return g.d.NumBytes() }

// Underlying returns the wrapped DHE (for training and DHE→table
// conversion in the hybrid pipeline), looking through Instrument wrappers;
// ok is false for non-DHE generators.
func Underlying(g Generator) (*dhe.DHE, bool) {
	if dg, isDHE := unwrapGenerator(g).(*dheGen); isDHE {
		return dg.d, true
	}
	return nil, false
}

// Int8Active reports whether g is a DHE generator whose serving path runs
// the quantized decoder (i.e. Options.Int8 was set and the accuracy gate
// passed). False for non-DHE generators.
func Int8Active(g Generator) bool {
	dg, isDHE := unwrapGenerator(g).(*dheGen)
	return isDHE && dg.inf.Int8Active()
}
