package core

import (
	"fmt"
	"math/rand"
	"testing"

	"secemb/internal/dhe"
	"secemb/internal/tensor"
)

func smallCoreDHE(seed int64) *dhe.DHE {
	rng := rand.New(rand.NewSource(seed))
	return dhe.New(dhe.Config{K: 32, Hidden: []int{24}, Dim: 8, Seed: seed}, rng)
}

// TestScanBatchedReusesBuffersCorrectly cycles one batched-scan generator
// through growing and shrinking batch sizes: outputs must match the direct
// lookup even though the output slab is reused and may carry stale
// contents from a previous (larger) batch.
func TestScanBatchedReusesBuffersCorrectly(t *testing.T) {
	tbl := testTable(128, 8, 21)
	ref := newStorage(Lookup, tbl, Options{})
	g := newStorage(LinearScanBatched, tbl, Options{})
	for _, n := range []int{5, 64, 1, 17, 64} {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64((i * 37) % 128)
		}
		want := mustGen(t, ref, ids)
		got := mustGen(t, g, ids)
		if !tensor.AllClose(got, want, 0) {
			t.Fatalf("batch %d: batched scan diverges after buffer reuse", n)
		}
	}
}

// checkZeroSteadyStateAllocs: after the sizing call, a Generate of tech
// reuses the generator's own accumulator and output and allocates nothing.
func checkZeroSteadyStateAllocs(t *testing.T, tech Technique) {
	t.Helper()
	tbl := testTable(256, 16, 23)
	ids := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	g := newStorage(tech, tbl, Options{})
	mustGen(t, g, ids) // size the accumulator and output
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.Generate(ids); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state %s allocates %.0f objects per call", tech.Key(), allocs)
	}
}

func TestScanSteadyStateAllocs(t *testing.T) { checkZeroSteadyStateAllocs(t, LinearScan) }

func TestScanBatchedSteadyStateAllocs(t *testing.T) {
	checkZeroSteadyStateAllocs(t, LinearScanBatched)
}

// TestORAMGenReusesBuffersCorrectly is the ORAM counterpart of
// TestScanBatchedReusesBuffersCorrectly: path and circuit generators cycle
// through growing and shrinking batches on their owned output slab and
// must still match the direct lookup.
func TestORAMGenReusesBuffersCorrectly(t *testing.T) {
	tbl := testTable(128, 8, 21)
	ref := newStorage(Lookup, tbl, Options{})
	for _, tech := range []Technique{PathORAM, CircuitORAM} {
		g := newStorage(tech, tbl, Options{})
		for _, n := range []int{5, 64, 1, 17, 64} {
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = uint64((i * 37) % 128)
			}
			want := mustGen(t, ref, ids)
			if got := mustGen(t, g, ids); !tensor.AllClose(got, want, 0) {
				t.Fatalf("%s batch %d: output diverges after buffer reuse", tech.Key(), n)
			}
		}
	}
}

// checkOutputValidUntilNextGenerate pins down the Generator contract for
// tech: the generator returns the one matrix it owns, so the next Generate
// on the same instance releases (and may rewrite) the previous result, and
// a caller that keeps a result must copy it. A larger batch in between
// makes the output grow before it shrinks again.
func checkOutputValidUntilNextGenerate(t *testing.T, tech Technique) {
	t.Helper()
	tbl := testTable(64, 4, 22)
	g := newStorage(tech, tbl, Options{})
	out := mustGen(t, g, []uint64{3, 9})
	first := out.Clone() // copy: retained past next call
	if mustGen(t, g, []uint64{50, 60, 1, 2, 63}) != out {
		t.Fatalf("%s: Generate returned storage it does not own", tech.Key())
	}
	again := mustGen(t, g, []uint64{3, 9})
	if !tensor.AllClose(again, first, 0) {
		t.Fatalf("%s: regenerated batch differs from the retained copy", tech.Key())
	}
}

func TestLookupOutputValidUntilNextGenerate(t *testing.T) {
	checkOutputValidUntilNextGenerate(t, Lookup)
}

// TestScanBatchedOutputValidUntilNextGenerate covers both techniques the
// scan generator serves.
func TestScanBatchedOutputValidUntilNextGenerate(t *testing.T) {
	for _, tech := range []Technique{LinearScan, LinearScanBatched} {
		checkOutputValidUntilNextGenerate(t, tech)
	}
}

func TestORAMGenOutputValidUntilNextGenerate(t *testing.T) {
	for _, tech := range []Technique{PathORAM, CircuitORAM} {
		checkOutputValidUntilNextGenerate(t, tech)
	}
}

// TestORAMGenSteadyStateAllocs extends the zero-allocation gate to the
// ORAMs: after the sizing call, a path or circuit Generate — and a Dual
// batch at its threshold, which the Circuit side serves — allocates
// nothing.
func TestORAMGenSteadyStateAllocs(t *testing.T) {
	tbl := testTable(256, 8, 26)
	d := smallCoreDHE(27)
	gens := []struct {
		name string
		g    Generator
	}{
		{"path", newStorage(PathORAM, tbl, Options{})},
		{"circuit", newStorage(CircuitORAM, tbl, Options{})},
		{"dual", NewDual(MustNew(DHE, 256, d.Dim, Options{DHE: d}), 4, Options{})},
	}
	ids := []uint64{3, 200, 3, 77}
	for _, c := range gens {
		mustGen(t, c.g, ids) // size the output slab
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.g.Generate(ids); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state %s allocates %.0f objects per batch-%d call", c.name, allocs, len(ids))
		}
	}
}

// TestDHEGenSteadyStateAllocs covers the core-layer half of the
// zero-allocation invariant: dheGen routes Generate through a private
// inference clone that owns every layer output, so after the sizing call
// a Generate allocates nothing, at batch 1 and at batch 64.
func TestDHEGenSteadyStateAllocs(t *testing.T) {
	d := smallCoreDHE(24)
	g := MustNew(DHE, 1000, d.Dim, Options{DHE: d})
	for _, batch := range []int{1, 64} {
		ids := make([]uint64, batch)
		for i := range ids {
			ids[i] = uint64(i * 7)
		}
		mustGen(t, g, ids) // size the inference workspace
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := g.Generate(ids); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state dheGen allocates %.0f objects per batch-%d call", allocs, batch)
		}
	}
}

// TestDHEGenDoesNotDisturbTraining ensures the generator's inference clone
// leaves the wrapped (trainable) DHE in training mode with shared weights:
// Underlying must still expose the original instance.
func TestDHEGenDoesNotDisturbTraining(t *testing.T) {
	d := smallCoreDHE(25)
	g := MustNew(DHE, 1000, d.Dim, Options{DHE: d})
	ids := []uint64{1, 2, 3}
	want, err := g.Generate(ids)
	if err != nil {
		t.Fatal(err)
	}
	direct := d.Generate(ids)
	if !tensor.AllClose(want, direct, 0) {
		t.Fatal("generator and wrapped DHE disagree")
	}
	u, ok := Underlying(g)
	if !ok {
		t.Fatal("DHE generator lost its Underlying accessor")
	}
	if u != d {
		t.Fatal("Underlying no longer returns the wrapped trainable DHE")
	}
}

func BenchmarkScanBatchedGenerate(b *testing.B) {
	tbl := testTable(4096, 16, 31)
	g := newStorage(LinearScanBatched, tbl, Options{})
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64((i * 61) % 4096)
	}
	if _, err := g.Generate(ids); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDHEGenGenerate(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			d := smallCoreDHE(32)
			g := MustNew(DHE, 100000, d.Dim, Options{DHE: d})
			ids := make([]uint64, batch)
			for i := range ids {
				ids[i] = uint64(i * 17)
			}
			if _, err := g.Generate(ids); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Generate(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
