package leakcheck

import (
	"testing"

	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

func TestWireFrontDoorPassesPanel(t *testing.T) {
	const rows, dim, batch, seed = 128, 4, 8, 3
	rep, err := Verify(WireFactory(rows, dim, seed), AdversarialPanel(rows, batch))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaky {
		t.Fatalf("wire front door reported leaky: %v", rep.Divergences[0])
	}
	// One linear-scan sweep per id plus exactly one response-size record:
	// the network path adds nothing id-shaped to the trace.
	if rep.TraceLen != batch*rows+1 {
		t.Fatalf("trace length %d, want %d (scan sweeps + response size)", rep.TraceLen, batch*rows+1)
	}
}

// TestWireAuditTeeth proves the wire audit catches the failure mode the
// response-size record exists for: a front door whose response size
// depends on the ids (e.g. padding to the exact row count of *distinct*
// ids instead of the public batch bucket). The simulated leak below
// records a size that varies with the ids; Verify must flag it even
// though the backend's accesses stay perfectly oblivious.
func TestWireAuditTeeth(t *testing.T) {
	const rows, dim, seed = 64, 4, 5
	leaky := Factory{
		Name:   "wire-sizeleak",
		Secure: true, // claims security; the audit must prove otherwise
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			gen, err := core.New(core.LinearScan, rows, dim, core.Options{Seed: seed, Tracer: tr, Threads: 1})
			if err != nil {
				return nil, err
			}
			return &sizeLeakGen{gen, tr}, nil
		},
	}
	panel := Panel{
		{1, 2, 3, 4}, // distinct ids → "compressed" size 4
		{7, 7, 7, 7}, // repeated id → "compressed" size 1
	}
	rep, err := Verify(leaky, panel)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Leaky {
		t.Fatal("id-dependent response size escaped the wire audit — the harness lost its teeth")
	}
}

// sizeLeakGen simulates a front door that deduplicates rows before
// padding: the recorded response size counts distinct ids, leaking their
// multiplicity even though every table access is a full oblivious sweep.
type sizeLeakGen struct {
	core.Generator
	tracer *memtrace.Tracer
}

func (g *sizeLeakGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	out, err := g.Generator.Generate(ids)
	if err != nil {
		return nil, err
	}
	distinct := map[uint64]bool{}
	for _, id := range ids {
		distinct[id] = true
	}
	g.tracer.Touch("wire.resp", int64(len(distinct)*g.Dim()*4), memtrace.Write)
	return out, nil
}
