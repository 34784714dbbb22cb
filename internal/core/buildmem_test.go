package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"secemb/internal/tensor"
)

// TestBuildMemoryCloses: building a scan table or an ORAM from Options.Seed
// allocates little beyond the representation it keeps, and the heap it
// leaves behind is that representation. Both are bounded by
// 1.1 × NumBytes + 1 MiB (rng state, bulk-load bookkeeping, the leaf
// array). A float table materialised first, or a copy of it, costs a
// further 0.5–1 × NumBytes and fails the bound.
func TestBuildMemoryCloses(t *testing.T) {
	for _, c := range []struct {
		tech Technique
		rows int
	}{
		{LinearScan, 4096}, {LinearScanBatched, 4096}, {LinearScan, 65536},
		{PathORAM, 4096}, {CircuitORAM, 4096},
		{PathORAM, 65536}, {CircuitORAM, 65536},
	} {
		t.Run(fmt.Sprintf("%s/%d", c.tech.Key(), c.rows), func(t *testing.T) {
			var before, built, live runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g := MustNew(c.tech, c.rows, 64, Options{Seed: 1})
			runtime.ReadMemStats(&built)
			runtime.GC()
			runtime.ReadMemStats(&live)
			runtime.KeepAlive(g)
			foot := float64(g.NumBytes())
			limit := 1.1*foot + 1<<20
			alloc := float64(built.TotalAlloc - before.TotalAlloc)
			heap := float64(live.HeapAlloc) - float64(before.HeapAlloc)
			t.Logf("NumBytes %.1f MiB: build allocated %.2f×, heap after GC %.2f×", foot/(1<<20), alloc/foot, heap/foot)
			if alloc > limit {
				t.Errorf("build allocated %.1f MiB, want ≤ %.1f MiB (1.1 × NumBytes + 1 MiB)", alloc/(1<<20), limit/(1<<20))
			}
			if heap > limit {
				t.Errorf("heap after GC grew %.1f MiB, want ≤ %.1f MiB (1.1 × NumBytes + 1 MiB)", heap/(1<<20), limit/(1<<20))
			}
		})
	}
}

// TestRowSourceBitExact: the scans and ORAMs built from Options.Seed alone
// serve, bit for bit, the rows of tensor.NewGaussian(rows, dim, 0.02,
// rand.New(rand.NewSource(Seed))) — the table Lookup holds and the bench
// oracle rebuilds — and a table-backed build serves its table's bits, NaN
// payloads and −0 included. Every shape has an odd dim (the packing tail)
// and a row count that is no power of two (a part-filled tree). 5 000
// rows give Circuit ORAM a recursive position map; reading every row
// costs the scans rows² blends and Path ORAM two 150-slot stash sweeps per
// slot on its path, so they read 1 000 and 300 rows, which keeps the test
// to seconds under -race.
func TestRowSourceBitExact(t *testing.T) {
	const dim, seed = 63, 7
	for _, c := range []struct {
		tech Technique
		rows int
	}{{LinearScan, 1000}, {LinearScanBatched, 1000}, {PathORAM, 300}, {CircuitORAM, 5000}} {
		seeded := tensor.NewGaussian(c.rows, dim, 0.02, rand.New(rand.NewSource(seed)))
		table := specialTable(c.rows, dim)
		for _, src := range []struct {
			name string
			opts Options
			want *tensor.Matrix
		}{{"seeded", Options{Seed: seed}, seeded}, {"table", Options{Table: table}, table}} {
			t.Run(fmt.Sprintf("%s/%s/%d", c.tech.Key(), src.name, c.rows), func(t *testing.T) {
				src.opts.Threads = 1
				g := MustNew(c.tech, c.rows, dim, src.opts)
				ids := make([]uint64, 50)
				for lo := 0; lo < c.rows; lo += len(ids) {
					for i := range ids {
						ids[i] = uint64(min(lo+i, c.rows-1))
					}
					out := mustGen(t, g, ids)
					for i, id := range ids {
						if k := sameBits(out.Row(i), src.want.Row(int(id))); k >= 0 {
							t.Fatalf("row %d element %d is %08x, want %08x", id, k,
								math.Float32bits(out.Row(i)[k]), math.Float32bits(src.want.Row(int(id))[k]))
						}
					}
				}
			})
		}
	}
}
