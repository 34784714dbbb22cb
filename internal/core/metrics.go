package core

import (
	"time"

	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// Unwrapper is implemented by decorating generators (Instrument) so
// type-probing helpers (Underlying) can reach the concrete
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
// Every series is a function of batch count and size only: ORAM
// controller work (stash occupancy, words moved on eviction) depends on
// the ids, so it is never published here.
type instrumentedGen struct {
	Generator // the wrapped generator; only Generate is overridden

	gens *obs.Counter
	errs *obs.Counter
	ids  *obs.Counter
	lat  *obs.Histogram
}

// Instrument wraps g so every Generate call is counted and timed in reg.
// Construction through New with Options.Obs set applies this
// automatically. A nil registry returns g unchanged.
func Instrument(g Generator, reg *obs.Registry) Generator {
	if reg == nil {
		return g
	}
	tech := g.Technique().Key()
	return &instrumentedGen{
		Generator: g,
		gens:      reg.Counter("core_generate_total", obs.LabelTech, tech),
		errs:      reg.Counter("core_generate_errors_total", obs.LabelTech, tech),
		ids:       reg.Counter("core_generate_ids_total", obs.LabelTech, tech),
		lat:       reg.Histogram("core_generate_ns", obs.LabelTech, tech),
	}
}

// Generate forwards to the wrapped generator, counting and timing the call.
//
// secemb:secret ids
func (i *instrumentedGen) Generate(ids []uint64) (*tensor.Matrix, error) {
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
	return out, nil
}

func (i *instrumentedGen) Unwrap() Generator { return i.Generator }
