package core

import (
	"time"

	"secemb/internal/obs"
	"secemb/internal/oram"
	"secemb/internal/perf"
	"secemb/internal/tensor"
)

// Unwrapper is implemented by decorating generators (Instrument) so
// type-probing helpers (Underlying, ORAMStats) can reach the concrete
// implementation.
type Unwrapper interface {
	Unwrap() Generator
}

// unwrapGenerator strips decoration layers down to the concrete generator.
func unwrapGenerator(g Generator) Generator {
	for {
		u, ok := g.(Unwrapper)
		if !ok {
			return g
		}
		g = u.Unwrap()
	}
}

// instrumentedGen decorates a Generator with per-technique observability:
//
//	core_generate_total{tech}         batches generated
//	core_generate_errors_total{tech}  rejected batches (bad ids)
//	core_generate_ids_total{tech}     ids embedded
//	core_generate_ns{tech}            per-batch latency histogram
//
// ORAM-backed generators additionally account controller work (EPC
// bucket traffic, modeled nanoseconds) through a perf.Meter, reproducing
// the per-window accounting the paper uses to compare the ZeroTrace
// deployment variants (Figure 10).
type instrumentedGen struct {
	Generator // the wrapped generator; only Generate is overridden

	gens  *obs.Counter
	errs  *obs.Counter
	ids   *obs.Counter
	lat   *obs.Histogram
	stats *oram.Stats // live controller counters; nil when not ORAM-backed
	meter *perf.Meter
}

// Instrument wraps g so every Generate call is counted and timed in reg.
// Construction through New with Options.Obs set applies this
// automatically. A nil registry returns g unchanged.
func Instrument(g Generator, reg *obs.Registry) Generator {
	if reg == nil {
		return g
	}
	tech := g.Technique().Key()
	ig := &instrumentedGen{
		Generator: g,
		gens:      reg.Counter("core_generate_total", obs.LabelTech, tech),
		errs:      reg.Counter("core_generate_errors_total", obs.LabelTech, tech),
		ids:       reg.Counter("core_generate_ids_total", obs.LabelTech, tech),
		lat:       reg.Histogram("core_generate_ns", obs.LabelTech, tech),
	}
	if s, ok := ORAMStats(g); ok {
		ig.stats = s
		ig.meter = perf.NewMeter(perf.ZTGramineOpt, reg)
	}
	return ig
}

// Generate forwards to the wrapped generator, counting and timing the call.
//
// secemb:secret ids
func (i *instrumentedGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	var before oram.Stats
	if i.stats != nil {
		before = *i.stats
	}
	start := time.Now()
	out, err := i.Generator.Generate(ids)
	elapsed := time.Since(start)
	i.lat.ObserveDuration(elapsed)
	i.gens.Inc()
	if err != nil {
		i.errs.Inc()
		return nil, err
	}
	i.ids.Add(int64(len(ids)))
	if i.stats != nil {
		i.meter.Record(perf.Delta(*i.stats, before))
	}
	return out, nil
}

func (i *instrumentedGen) Unwrap() Generator { return i.Generator }
