package leakcheck

import (
	"math/rand"
	"strings"
	"testing"

	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

func TestAdversarialPanelShape(t *testing.T) {
	const rows, batch = 300, 16
	panel := AdversarialPanel(rows, batch)
	if len(panel) < 8 {
		t.Fatalf("panel has %d inputs, want ≥8", len(panel))
	}
	seen := map[string]bool{}
	for i, ids := range panel {
		if len(ids) != batch {
			t.Fatalf("input %d has %d ids, want %d", i, len(ids), batch)
		}
		for j, id := range ids {
			if id >= rows {
				t.Fatalf("input %d id %d = %d out of range %d", i, j, id, rows)
			}
		}
		key := ""
		for _, id := range ids {
			key += string(rune(id)) + ","
		}
		if seen[key] {
			t.Fatalf("input %d duplicates an earlier panel input: %v", i, ids)
		}
		seen[key] = true
	}
	// Boundary inputs must be present: an all-min and an all-max batch.
	if panel[0][0] != 0 || panel[1][0] != rows-1 {
		t.Fatalf("panel must lead with min/max boundary inputs, got %v, %v", panel[0], panel[1])
	}
}

// TestObliviousTechniquesPassPanel is the acceptance check: every secure
// generator's canonical trace is identical across the full adversarial
// panel.
func TestObliviousTechniquesPassPanel(t *testing.T) {
	const rows, dim, batch, seed = 256, 8, 8, 3
	panel := AdversarialPanel(rows, batch)
	for _, f := range StandardFactories(rows, dim, seed) {
		if !f.Secure {
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			rep, err := Verify(f, panel)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Leaky {
				t.Fatalf("%s reported leaky: %v", f.Name, rep.Divergences[0])
			}
			if !rep.Pass() {
				t.Fatalf("%s did not pass", f.Name)
			}
			if rep.PanelSize != len(panel) || rep.BatchSize != batch {
				t.Fatalf("report shape %d/%d, want %d/%d", rep.PanelSize, rep.BatchSize, len(panel), batch)
			}
		})
	}
}

// TestLookupFlaggedLeakyWithOffset is the harness-has-teeth check: the
// plain table lookup must be reported leaky, and the first-divergence
// offset must point at the exact position where the crafted inputs differ.
func TestLookupFlaggedLeakyWithOffset(t *testing.T) {
	const rows, dim, seed = 64, 4, 1
	f := TechniqueFactory(core.Lookup, rows, dim, seed)
	// The lookup trace is one access per id, so inputs differing only at
	// position 3 must diverge at canonical offset 3.
	panel := Panel{
		{1, 2, 3, 4},
		{1, 2, 3, 9},
	}
	rep, err := Verify(f, panel)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Leaky {
		t.Fatal("lookup not flagged leaky — the harness has no teeth")
	}
	if rep.Pass() != true {
		t.Fatal("an insecure technique caught leaking must count as a harness pass")
	}
	d := rep.Divergences[0]
	if d.Input != 1 || d.Offset != 3 {
		t.Fatalf("divergence at input %d offset %d, want input 1 offset 3", d.Input, d.Offset)
	}
	if d.RegionDiffs["lookup"] != 1 {
		t.Fatalf("region diffs %v, want lookup:1", d.RegionDiffs)
	}
	if !strings.Contains(d.Want, "[4]") || !strings.Contains(d.Got, "[9]") {
		t.Fatalf("divergence should name the leaked blocks, got want=%s got=%s", d.Want, d.Got)
	}
	// And across the full adversarial panel, every non-reference input
	// must diverge (they all differ from the all-zeros batch).
	rep, err = Verify(f, AdversarialPanel(rows, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != rep.PanelSize-1 {
		t.Fatalf("lookup diverged on %d/%d inputs, want all", len(rep.Divergences), rep.PanelSize-1)
	}
}

// leakyScan wraps an oblivious generator but sneaks one id-dependent touch
// in front — the one-line regression class the harness exists to catch.
type leakyScan struct {
	core.Generator
	tr *memtrace.Tracer
}

func (g leakyScan) Generate(ids []uint64) (*tensor.Matrix, error) {
	g.tr.Touch("scan", int64(ids[0]%2), memtrace.Read)
	return g.Generator.Generate(ids)
}

// TestInjectedLeakCaught: tampering an oblivious generator with a single
// input-dependent access must flip its verdict, with the divergence at
// offset 0 where the tampered touch lands.
func TestInjectedLeakCaught(t *testing.T) {
	const rows, dim, seed = 64, 4, 2
	f := Factory{
		Name:   "scan-tampered",
		Secure: true,
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			g, err := core.New(core.LinearScan, rows, dim, core.Options{Seed: seed, Tracer: tr, Threads: 1})
			if err != nil {
				return nil, err
			}
			return leakyScan{Generator: g, tr: tr}, nil
		},
	}
	panel := Panel{
		{2, 2, 2, 2}, // ids[0] even → touches block 0
		{3, 3, 3, 3}, // ids[0] odd  → touches block 1
	}
	rep, err := Verify(f, panel)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Leaky || rep.Pass() {
		t.Fatal("injected leak not caught")
	}
	if d := rep.Divergences[0]; d.Offset != 0 {
		t.Fatalf("divergence offset %d, want 0", d.Offset)
	}
}

// TestDualBothRegimes audits the hybrid in both dispatch regimes and
// checks each regime really exercised its representation.
func TestDualBothRegimes(t *testing.T) {
	const rows, dim, threshold, seed = 128, 8, 4, 5
	f := DualFactory(rows, dim, threshold, seed)
	regions := func(batch int) map[string]bool {
		tr := memtrace.NewEnabled()
		g, err := f.New(tr)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, batch)
		if _, err := g.Generate(ids); err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, a := range tr.Snapshot() {
			out[a.Region] = true
		}
		return out
	}
	if r := regions(threshold); !r["circuit.tree"] {
		t.Fatalf("batch ≤ threshold should hit the ORAM, saw regions %v", r)
	}
	if r := regions(threshold + 4); !r["dhe"] {
		t.Fatalf("batch > threshold should hit the DHE, saw regions %v", r)
	}
	for _, batch := range []int{threshold, threshold + 4} {
		rep, err := Verify(f, AdversarialPanel(rows, batch))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Leaky {
			t.Fatalf("dual (batch %d) reported leaky: %v", batch, rep.Divergences[0])
		}
	}
}

// TestCircuitRecursionPanel runs the roster's circuit-rec target — a table
// past the Circuit ORAM recursion cutoff, so the audit covers the recursive
// position-map regions — and checks its guard: the same target over a table
// that does not recurse is refused, not passed.
func TestCircuitRecursionPanel(t *testing.T) {
	const dim, batch, seed = 2, 2, 7
	f := CircuitRecFactory(dim, seed)
	rep, err := Verify(f, AdversarialPanel(f.Rows, batch))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaky {
		t.Fatalf("recursive circuit ORAM reported leaky: %v", rep.Divergences[0])
	}
	flat := f
	flat.New = TechniqueFactory(core.CircuitORAM, 512, dim, seed).New
	if _, err := Verify(flat, AdversarialPanel(512, batch)); err == nil || !strings.Contains(err.Error(), "lost its subject") {
		t.Fatalf("non-recursing table under circuit-rec: err = %v, want the MustTouch refusal", err)
	}
}

func TestVerifyRejectsBadPanels(t *testing.T) {
	f := TechniqueFactory(core.LinearScan, 16, 4, 1)
	if _, err := Verify(f, Panel{{1, 2}}); err == nil {
		t.Fatal("single-input panel must be rejected")
	}
	if _, err := Verify(f, Panel{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("ragged panel must be rejected")
	}
	if _, err := Verify(f, Panel{{1, 99}, {1, 2}}); err == nil {
		t.Fatal("out-of-range ids must surface the generator error")
	}
}

func TestVerifyDetectsDeadInstrumentation(t *testing.T) {
	f := Factory{
		Name:   "untraced",
		Secure: true,
		New: func(*memtrace.Tracer) (core.Generator, error) {
			// Discards the tracer: the audit must refuse to certify a
			// generator that recorded nothing.
			return core.New(core.LinearScan, 16, 4, core.Options{Threads: 1})
		},
	}
	if _, err := Verify(f, Panel{{0, 1}, {2, 3}}); err == nil ||
		!strings.Contains(err.Error(), "instrumentation inactive") {
		t.Fatalf("want instrumentation-inactive error, got %v", err)
	}
}

// TestCoalescedSchedulerPassesPanel audits the serving micro-batcher: the
// panel ids arrive as independent single-id requests, the coalescer fuses
// them, and the resulting backend traces must be identical across the
// panel — batch composition may depend on arrival count, never on ids.
func TestCoalescedSchedulerPassesPanel(t *testing.T) {
	const rows, dim, batch, seed = 128, 4, 8, 3 // batch divisible by coalesceMaxBatch
	rep, err := Verify(CoalescedFactory(rows, dim, seed), AdversarialPanel(rows, batch))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaky {
		t.Fatalf("coalescer reported leaky: %v", rep.Divergences[0])
	}
	// 8 single-id requests fused at maxBatch 4 = exactly two full sweeps
	// of the 128-row table: the deterministic composition the audit needs.
	if rep.TraceLen != 2*rows {
		t.Fatalf("trace length %d, want %d (two fused sweeps)", rep.TraceLen, 2*rows)
	}
}

// TestCoalesceAuditTeeth proves the coalesce audit catches the failure
// mode it exists for: a scheduler whose flush policy inspects the secret
// ids. The broken policy below flushes a batch early whenever it contains
// an odd id, so the *number* of fused sweeps — and hence the trace —
// depends on the ids, and Verify must flag the divergence. (The real
// serving.Group cannot express such a policy: its gather loop never reads
// payloads. This is a simulation of the regression the roster guards
// against.)
func TestCoalesceAuditTeeth(t *testing.T) {
	const rows, dim, seed = 64, 4, 5
	leaky := Factory{
		Name:   "coalesce-idflush",
		Secure: true, // claims security; the audit must prove otherwise
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			table := tensor.NewGaussian(rows, dim, 0.02, rand.New(rand.NewSource(seed)))
			return &idFlushGen{core.MustNew(core.LinearScanBatched, rows, dim, core.Options{Table: table, Tracer: tr, Threads: 1})}, nil
		},
	}
	panel := Panel{
		{2, 4, 6, 8}, // all even: one fused batch, one sweep
		{2, 3, 6, 8}, // odd id mid-batch: early flush splits the batch
	}
	rep, err := Verify(leaky, panel)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Leaky {
		t.Fatal("id-dependent flush policy escaped the coalesce audit — the harness lost its teeth")
	}
}

// idFlushGen simulates a broken coalescer: batches of up to 4 ids, but a
// batch flushes immediately after admitting an odd id.
type idFlushGen struct {
	core.Generator
}

func (g *idFlushGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	out := tensor.New(len(ids), g.Dim())
	flush := func(start, end int) error {
		if start == end {
			return nil
		}
		emb, err := g.Generator.Generate(ids[start:end])
		if err != nil {
			return err
		}
		for r := 0; r < emb.Rows; r++ {
			copy(out.Row(start+r), emb.Row(r))
		}
		return nil
	}
	start := 0
	for i, id := range ids {
		if id%2 == 1 || i-start+1 == 4 { // the leak: ids steer the flush
			if err := flush(start, i+1); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if err := flush(start, len(ids)); err != nil {
		return nil, err
	}
	return out, nil
}

// TestInt8DHEPassesPanel runs the quantized DHE hot path through the
// adversarial panel: the SWAR kernels and activation quantization must
// leave traces exactly as input-independent as the float decoder's.
func TestInt8DHEPassesPanel(t *testing.T) {
	const rows, dim, batch, seed = 256, 8, 8, 3
	panel := AdversarialPanel(rows, batch)
	rep, err := Verify(Int8DHEFactory(rows, dim, seed), panel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaky || !rep.Pass() {
		t.Fatalf("dhe-int8 failed the panel: %+v", rep)
	}
}
