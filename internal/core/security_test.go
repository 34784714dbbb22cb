package core

import (
	"math/rand"
	"reflect"
	"testing"

	"secemb/internal/memtrace"
	"secemb/internal/obs"
)

// traceOf runs one batch through g and returns the recorded trace.
func traceOf(tracer *memtrace.Tracer, g Generator, ids []uint64) memtrace.Trace {
	tracer.Reset()
	g.Generate(ids)
	return tracer.Snapshot()
}

// TestDeterministicTechniquesTraceEquality is the heart of the Table II
// verification: for LinearScan and DHE, the block-granular access trace
// must be *identical* no matter which secret ids are queried.
func TestDeterministicTechniquesTraceEquality(t *testing.T) {
	tbl := testTable(300, 8, 1)
	secrets := [][]uint64{
		{0, 0, 0, 0},
		{299, 299, 299, 299},
		{1, 2, 3, 4},
		{150, 3, 299, 0},
	}
	cases := []struct {
		name string
		mk   func(tracer *memtrace.Tracer) Generator
	}{
		{"LinearScan", func(tr *memtrace.Tracer) Generator {
			return newStorage(LinearScan, tbl, Options{Tracer: tr, Threads: 1})
		}},
		{"DHE", func(tr *memtrace.Tracer) Generator {
			return MustNew(DHE, 300, 8, Options{Tracer: tr, Seed: 2})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tracer := memtrace.NewEnabled()
			g := c.mk(tracer)
			ref := traceOf(tracer, g, secrets[0])
			if len(ref) == 0 {
				t.Fatal("trace instrumentation inactive")
			}
			for _, ids := range secrets[1:] {
				tr := traceOf(tracer, g, ids)
				if d := ref.FirstDiff(tr); d != -1 {
					t.Fatalf("trace differs at %d for ids %v: %v vs %v",
						d, ids, ref[d], tr[d])
				}
			}
		})
	}
}

// TestLookupTraceLeaks documents the baseline's vulnerability: the trace
// is exactly the queried rows.
func TestLookupTraceLeaks(t *testing.T) {
	tbl := testTable(100, 4, 2)
	tracer := memtrace.NewEnabled()
	g := newStorage(Lookup, tbl, Options{Tracer: tracer, Threads: 1})
	tr := traceOf(tracer, g, []uint64{42, 7})
	want := memtrace.Trace{{Region: "lookup", Block: 42, Op: memtrace.Read}, {Region: "lookup", Block: 7, Op: memtrace.Read}}
	if !tr.Equal(want) {
		t.Fatalf("lookup trace %v, want %v", tr, want)
	}
}

// TestLookupMutualInformationFull quantifies the leak: the observed block
// identifies the secret completely (log2(n) bits), while the secure
// techniques leak none.
func TestLookupMutualInformationFull(t *testing.T) {
	const n = 16
	tbl := testTable(n, 4, 3)
	tracer := memtrace.NewEnabled()

	measure := func(g Generator) float64 {
		leak := make([]map[int64]int, n)
		for s := 0; s < n; s++ {
			leak[s] = map[int64]int{}
			tr := traceOf(tracer, g, []uint64{uint64(s)})
			if len(tr) > 0 {
				leak[s][tr[0].Block]++
			}
		}
		return memtrace.MutualInformationBits(leak)
	}

	if mi := measure(newStorage(Lookup, tbl, Options{Tracer: tracer, Threads: 1})); mi < 3.9 {
		t.Fatalf("lookup MI %.2f bits, expected ≈ log2(16)=4", mi)
	}
	if mi := measure(newStorage(LinearScan, tbl, Options{Tracer: tracer, Threads: 1})); mi > 1e-9 {
		t.Fatalf("linear scan MI %.4f bits, expected 0", mi)
	}
}

// TestORAMGeneratorsAccessShape: per-batch bucket-touch counts are
// constant regardless of ids (the randomized analogue of trace equality;
// full distributional tests live in internal/oram).
func TestORAMGeneratorsAccessShape(t *testing.T) {
	tbl := testTable(256, 4, 4)
	for _, tech := range []Technique{PathORAM, CircuitORAM} {
		t.Run(tech.Key(), func(t *testing.T) {
			tracer := memtrace.NewEnabled()
			g := newStorage(tech, tbl, Options{Tracer: tracer, Seed: 5})
			count := func(ids []uint64) int {
				return len(traceOf(tracer, g, ids))
			}
			c0 := count([]uint64{0, 0, 0})
			for _, ids := range [][]uint64{{255, 255, 255}, {1, 128, 200}} {
				if c := count(ids); c != c0 {
					t.Fatalf("trace length %d for %v differs from %d", c, ids, c0)
				}
			}
		})
	}
}

// TestScanTraceCoversWholeTablePerQuery: the scan must touch every row for
// every query — not just until the match.
func TestScanTraceCoversWholeTablePerQuery(t *testing.T) {
	tbl := testTable(50, 4, 6)
	tracer := memtrace.NewEnabled()
	g := newStorage(LinearScan, tbl, Options{Tracer: tracer, Threads: 1})
	tr := traceOf(tracer, g, []uint64{0, 49})
	if len(tr) != 100 {
		t.Fatalf("scan touched %d blocks, want 2 queries × 50 rows", len(tr))
	}
	h := tr.Histogram("scan")
	for r := int64(0); r < 50; r++ {
		if h[r] != 2 {
			t.Fatalf("row %d touched %d times, want 2", r, h[r])
		}
	}
}

// TestMetricsIndependentOfIDs: /metrics is an output channel, so what an
// instrumented ORAM generator publishes must not depend on which ids it
// served. One hot id and uniform ids, batch for batch, must leave every
// counter and gauge equal; histograms hold time and are left out.
func TestMetricsIndependentOfIDs(t *testing.T) {
	const rows, batches, batch = 4096, 100, 8
	for _, tech := range []Technique{PathORAM, CircuitORAM} {
		t.Run(tech.Key(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			var snaps [2]obs.Snapshot
			for i, pick := range []func() uint64{
				func() uint64 { return 7 },
				func() uint64 { return uint64(rng.Intn(rows)) },
			} {
				reg := obs.NewRegistry()
				g := MustNew(tech, rows, 16, Options{Seed: 1, Obs: reg})
				ids := make([]uint64, batch)
				for b := 0; b < batches; b++ {
					for j := range ids {
						ids[j] = pick()
					}
					if _, err := g.Generate(ids); err != nil {
						t.Fatal(err)
					}
				}
				snaps[i] = reg.Snapshot()
			}
			hot, uniform := snaps[0], snaps[1]
			if !reflect.DeepEqual(hot.Counters, uniform.Counters) {
				t.Errorf("counters depend on the ids:\n  hot     %v\n  uniform %v", hot.Counters, uniform.Counters)
			}
			if !reflect.DeepEqual(hot.Gauges, uniform.Gauges) {
				t.Errorf("gauges depend on the ids:\n  hot     %v\n  uniform %v", hot.Gauges, uniform.Gauges)
			}
		})
	}
}
