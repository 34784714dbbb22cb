package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"secemb/internal/core"
	"secemb/internal/dhe"
	"secemb/internal/serving"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

// oracle decides whether a response is correct. Reference rows come from
// the server's representation seed through the same public constructors
// secembd uses: the Gaussian table for the storage techniques, a float32
// DHE for dhe and dual (whose served rows may be int8, hence the gate's
// tolerance).
type oracle struct {
	table *tensor.Matrix // storage techniques, and dual's materialised rows
	tol   float64

	mu  sync.Mutex // a generator serves one Generate at a time
	gen core.Generator
}

func newOracle(w *workload) (*oracle, error) {
	switch w.Technique {
	case "dhe", "dual":
		gen, err := core.New(core.DHE, w.Rows, dim, core.Options{Seed: serverSeed})
		if err != nil {
			return nil, err
		}
		o := &oracle{gen: gen, tol: dhe.DefaultInt8MaxAbsErr}
		if w.Technique == "dual" {
			// Small enough to evaluate every row once instead of per check.
			d, _ := core.Underlying(gen)
			o.table, o.gen = d.ToTable(w.Rows), nil
		}
		return o, nil
	default:
		rng := rand.New(rand.NewSource(serverSeed))
		return &oracle{table: tensor.NewGaussian(w.Rows, dim, 0.02, rng)}, nil
	}
}

// errWrongRows and errWrongSize are the two content failures the oracle
// can report (everything else is a transport or status failure).
var (
	errWrongRows = errors.New("oracle: rows differ from the reference")
	errWrongSize = errors.New("oracle: padded frame size differs from the public bucket")
)

// check classifies one Embed outcome. Shape and padded size are checked on
// every response; deep additionally compares the rows with the reference.
func (o *oracle) check(ids []uint64, res *wire.Result, err error, deep bool) error {
	if err != nil {
		return err
	}
	if want := wire.FrameLen(wire.BucketRows(len(ids), maxBatch), dim); res.BytesIn != want {
		return fmt.Errorf("%w: %d bytes for %d ids, want %d", errWrongSize, res.BytesIn, len(ids), want)
	}
	if res.Status != serving.StatusOK {
		return fmt.Errorf("status %v", res.Status)
	}
	if res.Rows == nil || res.Rows.Rows != len(ids) || res.Rows.Cols != dim {
		return fmt.Errorf("%w: shape %v for %d ids", errWrongRows, res.Rows, len(ids))
	}
	if !deep {
		return nil
	}
	want, err := o.reference(ids)
	if err != nil {
		return err
	}
	for i, v := range res.Rows.Data {
		if d := math.Abs(float64(v - want[i])); !(d <= o.tol) {
			return fmt.Errorf("%w: row %d col %d is %g, want %g", errWrongRows, i/dim, i%dim, v, want[i])
		}
	}
	return nil
}

// reference returns the expected rows for ids, row-major.
func (o *oracle) reference(ids []uint64) ([]float32, error) {
	if o.table != nil {
		out := make([]float32, 0, len(ids)*dim)
		for _, id := range ids {
			out = append(out, o.table.Row(int(id))...)
		}
		return out, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m, err := o.gen.Generate(ids)
	if err != nil {
		return nil, err
	}
	return append([]float32(nil), m.Data...), nil
}
