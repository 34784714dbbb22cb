package core

import (
	"math/rand"
	"testing"

	"secemb/internal/dhe"
	"secemb/internal/memtrace"
	"secemb/internal/oram"
	"secemb/internal/tensor"
)

func testDual(t *testing.T, threshold int, tracer *memtrace.Tracer) *Dual {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	d := dhe.New(dhe.Config{K: 32, Hidden: []int{16}, Dim: 4, Seed: 9}, rng)
	g := MustNew(DHE, 128, d.Dim, Options{DHE: d, Tracer: tracer})
	return NewDual(g, threshold, Options{Seed: 10, Tracer: tracer})
}

func TestDualRepresentationsAgree(t *testing.T) {
	// The ORAM table is materialized from the DHE, so both dispatch
	// targets must return identical embeddings.
	g := testDual(t, 2, nil)
	big := mustGen(t, g, []uint64{5, 6, 7}) // batch 3 > threshold → DHE
	for i, id := range []uint64{5, 6, 7} {
		small := mustGen(t, g, []uint64{id}) // batch 1 ≤ threshold → ORAM
		if !tensor.AllClose(small, tensor.SliceRows(big, i, i+1), 0) {
			t.Fatalf("dual representations disagree for id %d", id)
		}
	}
}

func TestDualDispatchByBatchSize(t *testing.T) {
	tracer := memtrace.NewEnabled()
	g := testDual(t, 2, tracer)

	regions := func(ids []uint64) map[string]bool {
		tracer.Reset()
		g.Generate(ids)
		seen := map[string]bool{}
		for _, a := range tracer.Snapshot() {
			seen[a.Region] = true
		}
		return seen
	}
	small := regions([]uint64{1})
	if !small["circuit.tree"] || small["dhe"] {
		t.Fatalf("batch 1 must hit the ORAM, got regions %v", small)
	}
	large := regions([]uint64{1, 2, 3})
	if !large["dhe"] || large["circuit.tree"] {
		t.Fatalf("batch 3 must hit the DHE, got regions %v", large)
	}
}

func TestDualDispatchAtExactThresholdBoundary(t *testing.T) {
	// The dispatch rule is strict: batch == threshold is the *largest*
	// batch still served by the ORAM; threshold+1 is the smallest batch
	// that flips to the DHE. Coalesced decode batches from the serving
	// layer land exactly on this boundary, so an off-by-one here silently
	// moves traffic between representations.
	const threshold = 4
	tracer := memtrace.NewEnabled()
	g := testDual(t, threshold, tracer)

	regions := func(ids []uint64) map[string]bool {
		tracer.Reset()
		if _, err := g.Generate(ids); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, a := range tracer.Snapshot() {
			seen[a.Region] = true
		}
		return seen
	}
	at := regions([]uint64{1, 2, 3, 4}) // batch == threshold
	if !at["circuit.tree"] || at["dhe"] {
		t.Fatalf("batch == threshold must stay on the ORAM, got regions %v", at)
	}
	above := regions([]uint64{1, 2, 3, 4, 5}) // batch == threshold+1
	if !above["dhe"] || above["circuit.tree"] {
		t.Fatalf("batch == threshold+1 must flip to the DHE, got regions %v", above)
	}
	if g.Active(threshold) != CircuitORAM || g.Active(threshold+1) != DHE {
		t.Fatal("Active disagrees with the observed Generate dispatch")
	}
}

func TestDualTraceIndependentAtCoalescedBatchSizes(t *testing.T) {
	// Under the serving layer's coalescer the Dual sees every batch size
	// around its threshold. At each size — below, at, and above — the
	// canonical memory trace must not depend on which ids were fused:
	// batch size is public (§V-B), the ids inside the batch are not. Fresh
	// generators per probe hold the same rows under independent ORAM
	// leaves, and tree-bucket accesses canonicalize to their level,
	// exactly as in leakcheck.
	const threshold = 2
	probe := func(ids []uint64) memtrace.Trace {
		tracer := memtrace.NewEnabled()
		g := testDual(t, threshold, tracer)
		if _, err := g.Generate(ids); err != nil {
			t.Fatal(err)
		}
		return memtrace.CanonicalizeTreeRegions(tracer.Snapshot(), oram.RegionSuffixTree)
	}
	cases := [][2][]uint64{
		{{3}, {97}},                              // batch 1: ORAM decode
		{{3, 4}, {97, 11}},                       // batch == threshold: ORAM
		{{3, 4, 5}, {97, 11, 64}},                // threshold+1: DHE
		{{1, 2, 3, 4, 5, 6}, {9, 9, 9, 9, 9, 9}}, // deep in the DHE regime
	}
	for _, c := range cases {
		a, b := probe(c[0]), probe(c[1])
		if d := memtrace.Compare(a, b); !d.Equal() {
			t.Fatalf("batch size %d: trace depends on ids %v vs %v: %+v", len(c[0]), c[0], c[1], d)
		}
	}
}

func TestDualActiveAndMetadata(t *testing.T) {
	g := testDual(t, 4, nil)
	if g.Active(1) != CircuitORAM || g.Active(4) != CircuitORAM || g.Active(5) != DHE {
		t.Fatal("Active dispatch rule wrong")
	}
	if g.Rows() != 128 || g.Dim() != 4 || g.Technique() != DHE {
		t.Fatal("metadata wrong")
	}
	// Both representations are resident: footprint exceeds either alone.
	if g.NumBytes() <= g.dhe.NumBytes() || g.NumBytes() <= g.oram.NumBytes() {
		t.Fatal("dual must count both representations")
	}
}

func TestDualRequiresDHE(t *testing.T) {
	tbl := testTable(16, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-DHE generator")
		}
	}()
	NewDual(newStorage(Lookup, tbl, Options{}), 1, Options{})
}

func TestScanBatchedMatchesScan(t *testing.T) {
	tbl := testTable(200, 8, 2)
	ids := []uint64{0, 42, 199, 42}
	a := mustGen(t, newStorage(LinearScan, tbl, Options{}), ids)
	b := mustGen(t, newStorage(LinearScanBatched, tbl, Options{}), ids)
	if !tensor.AllClose(a, b, 0) {
		t.Fatal("batched scan must match per-query scan exactly")
	}
}

func TestScanBatchedTraceDeterministic(t *testing.T) {
	tbl := testTable(64, 4, 3)
	tracer := memtrace.NewEnabled()
	g := newStorage(LinearScanBatched, tbl, Options{Tracer: tracer, Threads: 1})
	probe := func(ids []uint64) memtrace.Trace {
		tracer.Reset()
		g.Generate(ids)
		return tracer.Snapshot()
	}
	a := probe([]uint64{0, 0})
	b := probe([]uint64{63, 17})
	if !a.Equal(b) {
		t.Fatal("batched scan trace must be id-independent")
	}
	// One full table sweep for the whole batch (single worker).
	if len(a) != 64 {
		t.Fatalf("expected one 64-row sweep, got %d touches", len(a))
	}
}

func TestScanBatchedMetadata(t *testing.T) {
	tbl := testTable(32, 4, 4)
	g := newStorage(LinearScanBatched, tbl, Options{Threads: 2})
	if g.Rows() != 32 || g.Dim() != 4 || g.Technique() != LinearScanBatched || g.NumBytes() != tbl.NumBytes() {
		t.Fatal("metadata wrong")
	}
	out := mustGen(t, g, []uint64{1, 2, 3})
	if out.Rows != 3 {
		t.Fatal("threaded generate wrong shape")
	}
}

// TestNewByKey: "dual" is the hybrid at the given threshold, every other
// key is that technique through New, and an unknown key is an error.
func TestNewByKey(t *testing.T) {
	g, err := NewByKey("dual", 64, 4, 3, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := g.(*Dual)
	if !ok || d.Active(3) != CircuitORAM || d.Active(4) != DHE || d.Rows() != 64 {
		t.Fatalf("dual resolved to %T %v", g, g)
	}
	for _, tech := range []Technique{Lookup, LinearScan, LinearScanBatched, PathORAM, CircuitORAM, DHE} {
		g, err := NewByKey(tech.Key(), 64, 4, 3, Options{Seed: 2})
		if err != nil || g.Technique() != tech {
			t.Fatalf("%s: built %v, err %v", tech.Key(), g, err)
		}
	}
	if _, err := NewByKey("nope", 64, 4, 3, Options{}); err == nil {
		t.Fatal("unknown key must be an error")
	}
	if _, err := NewByKey("dual", 0, 4, 3, Options{}); err == nil {
		t.Fatal("dual must surface New's shape error, not panic")
	}
}
