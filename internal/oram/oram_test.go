package oram

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"secemb/internal/memtrace"
)

// makers lets every test run against both schemes.
var makers = []struct {
	name   string
	mk     func(cfg Config) *Controller
	mkInit func(cfg Config, row func(id int, words []uint32)) *Controller
}{
	{"Path", NewPath, NewPathInit},
	{"Circuit", NewCircuit, NewCircuitInit},
}

func word(v int) []uint32 { return []uint32{uint32(v)} }

// write replaces block id's payload within one Update access.
func write(o *Controller, id uint64, data []uint32) {
	o.Update(id, func(d []uint32) { copy(d, data) })
}

func TestBitReverse(t *testing.T) {
	if bitReverse(0b001, 3) != 0b100 {
		t.Fatal("bitReverse(001,3)")
	}
	if bitReverse(0b110, 3) != 0b011 {
		t.Fatal("bitReverse(110,3)")
	}
	if bitReverse(0, 0) != 0 {
		t.Fatal("bitReverse(0,0)")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Fatalf("nextPow2(%d)=%d, want %d", in, got, want)
		}
	}
}

func TestTreeGeometry(t *testing.T) {
	st := &Stats{}
	tr := newTree(1024, 4, 8, nil, "t", st)
	// 1024 blocks / Z=4 → 256 leaves → levels=8, buckets=511.
	if tr.leaves != 256 || tr.levels != 8 || len(tr.ids) != 511*4 {
		t.Fatalf("geometry leaves=%d levels=%d slots=%d", tr.leaves, tr.levels, len(tr.ids))
	}
	// Path indexing: root is bucket 0; leaf L of path to leaf 5 is
	// (2^8-1)+5.
	if tr.nodeIndex(5, 0) != 0 || tr.nodeIndex(5, 8) != 255+5 {
		t.Fatal("nodeIndex wrong")
	}
}

// TestReadAfterInit: the row callback runs once per block in increasing
// id order on a zeroed view, and every block reads back what it wrote.
func TestReadAfterInit(t *testing.T) {
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			next := 0
			o := m.mkInit(Config{NumBlocks: 100, BlockWords: 2, Seed: 1}, func(id int, words []uint32) {
				if id != next || words[0] != 0 || words[1] != 0 {
					t.Fatalf("row(%d, %v), want row(%d, [0 0])", id, words, next)
				}
				next++
				words[0], words[1] = uint32(id*7), ^uint32(id)
			})
			if next != 100 {
				t.Fatalf("row called %d times, want 100", next)
			}
			for i := 0; i < 100; i++ {
				if got := o.Read(uint64(i)); got[0] != uint32(i*7) || got[1] != ^uint32(i) {
					t.Fatalf("block %d = %#x, want [%#x %#x]", i, got, i*7, ^uint32(i))
				}
			}
		})
	}
}

func TestReadWriteRandomAgainstReference(t *testing.T) {
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			const n = 256
			o := m.mk(Config{NumBlocks: n, BlockWords: 4, Seed: 2})
			ref := make(map[uint64][]uint32)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 3000; step++ {
				id := uint64(rng.Intn(n))
				if rng.Intn(2) == 0 {
					v := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
					write(o, id, v)
					ref[id] = v
				} else {
					got := o.Read(id)
					want, ok := ref[id]
					if !ok {
						want = []uint32{0, 0, 0, 0}
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("step %d id %d word %d: got %d want %d", step, id, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

func TestUpdateReadModifyWrite(t *testing.T) {
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			o := m.mk(Config{NumBlocks: 32, BlockWords: 2, Seed: 3})
			write(o, 5, []uint32{10, 20})
			o.Update(5, func(d []uint32) { d[0]++; d[1] *= 2 })
			got := o.Read(5)
			if got[0] != 11 || got[1] != 40 {
				t.Fatalf("Update result %v", got)
			}
		})
	}
}

func TestSmallSizes(t *testing.T) {
	for _, m := range makers {
		for _, n := range []int{1, 2, 3, 5, 7, 16} {
			t.Run(fmt.Sprintf("%s/n=%d", m.name, n), func(t *testing.T) {
				o := m.mk(Config{NumBlocks: n, BlockWords: 1, Seed: 4})
				for i := 0; i < n; i++ {
					write(o, uint64(i), word(i+100))
				}
				for rep := 0; rep < 3; rep++ {
					for i := 0; i < n; i++ {
						if got := o.Read(uint64(i)); got[0] != uint32(i+100) {
							t.Fatalf("n=%d block %d got %d", n, i, got[0])
						}
					}
				}
			})
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			o := m.mk(Config{NumBlocks: 8, BlockWords: 1, Seed: 5})
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			o.Read(8)
		})
	}
}

func TestRecursionEngagesAndWorks(t *testing.T) {
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			// Cutoff 64 forces recursion: 2048 → 128 → 8(flat).
			o := m.mk(Config{NumBlocks: 2048, BlockWords: 1, Seed: 6, RecursionCutoff: 64})
			if o.RecursionDepth() != 2 {
				t.Fatalf("recursion depth %d, want 2", o.RecursionDepth())
			}
			rng := rand.New(rand.NewSource(8))
			ref := map[uint64]uint32{}
			for step := 0; step < 1500; step++ {
				id := uint64(rng.Intn(2048))
				if rng.Intn(2) == 0 {
					v := rng.Uint32()
					write(o, id, word(int(v)))
					ref[id] = v
				} else if got := o.Read(id); got[0] != ref[id] {
					t.Fatalf("step %d id %d: got %d want %d", step, id, got[0], ref[id])
				}
			}
		})
	}
}

func TestNoRecursionBelowCutoff(t *testing.T) {
	o := NewCircuit(Config{NumBlocks: 1 << 10, BlockWords: 1, Seed: 7}) // default cutoff 2^12
	if o.RecursionDepth() != 0 {
		t.Fatalf("unexpected recursion depth %d", o.RecursionDepth())
	}
	o2 := NewCircuit(Config{NumBlocks: 1 << 13, BlockWords: 1, Seed: 7})
	if o2.RecursionDepth() == 0 {
		t.Fatal("recursion should engage above 2^12 blocks")
	}
}

func TestStashBoundsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("long stash soak")
	}
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			const n = 4096
			o := m.mk(Config{NumBlocks: n, BlockWords: 1, Seed: 9})
			rng := rand.New(rand.NewSource(10))
			for step := 0; step < 20000; step++ {
				o.Read(uint64(rng.Intn(n)))
			}
			max := o.Stats().MaxStash
			t.Logf("%s max stash occupancy over 20k accesses: %d", m.name, max)
			limit := DefaultPathStash
			if m.name == "Circuit" {
				limit = DefaultCircuitStash
			}
			if max > limit {
				t.Fatalf("stash high-water %d exceeds capacity %d", max, limit)
			}
		})
	}
}

func TestStatsAccumulate(t *testing.T) {
	o := NewPath(Config{NumBlocks: 64, BlockWords: 1, Seed: 11})
	before := *o.Stats()
	o.Read(0)
	s := o.Stats()
	if s.Accesses != before.Accesses+1 || s.BucketsRead <= before.BucketsRead ||
		s.BucketsWritten <= before.BucketsWritten || s.StashScans <= before.StashScans {
		t.Fatalf("stats did not advance: %+v", s)
	}
}

func TestNumBytesExceedsRawTable(t *testing.T) {
	// Table VI: the ORAM representation is >3× the raw table once the
	// tree's dummy slots, metadata and recursive posmaps are counted.
	const n, dim = 1 << 14, 64
	raw := int64(n * dim * 4)
	for _, m := range makers {
		o := m.mk(Config{NumBlocks: n, BlockWords: dim, Seed: 12, RecursionCutoff: 1 << 10})
		ratio := float64(o.NumBytes()) / float64(raw)
		if ratio < 1.5 {
			t.Fatalf("%s: ORAM/table ratio %.2f implausibly low", m.name, ratio)
		}
		t.Logf("%s footprint ratio %.2f×", m.name, ratio)
	}
}

func TestPathTreeLevels(t *testing.T) {
	o := NewPath(Config{NumBlocks: 1024, BlockWords: 1, Seed: 13})
	if o.TreeLevels() != 8 { // 1024/4=256 leaves
		t.Fatalf("TreeLevels=%d, want 8", o.TreeLevels())
	}
	c := NewCircuit(Config{NumBlocks: 1024, BlockWords: 1, Seed: 13})
	if c.TreeLevels() != 8 {
		t.Fatalf("Circuit TreeLevels=%d, want 8", c.TreeLevels())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Same seed + same sequence → same stats (reproducible experiments).
	run := func() Stats {
		o := NewCircuit(Config{NumBlocks: 128, BlockWords: 2, Seed: 42})
		for i := 0; i < 200; i++ {
			o.Read(uint64(i % 128))
		}
		return *o.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic stats:\n%+v\n%+v", a, b)
	}
}

// TestFootprintBytesMatchesBuiltInstances: the analytic footprint equals
// what a built controller allocates, for both schemes, with zero fields
// resolved the way Config resolves them (a zero cutoff is the scheme's
// default, not "recurse while n > 0"), odd payload widths, and odd flat
// position maps at the top level and one level down.
func TestFootprintBytesMatchesBuiltInstances(t *testing.T) {
	cases := []Config{
		{NumBlocks: 100, BlockWords: 4, RecursionCutoff: -1},
		{NumBlocks: 1 << 12, BlockWords: 16, RecursionCutoff: 1 << 10}, // recursion engaged
		{NumBlocks: 5000, BlockWords: 64},                              // default cutoff: Circuit recurses, Path does not
		{NumBlocks: 10, BlockWords: 2},                                 // every zero field resolved
		{NumBlocks: 777, BlockWords: 7, Z: 3, StashSize: 20},           // odd width, odd flat map
		{NumBlocks: 2977, BlockWords: 9, RecursionCutoff: 200},         // odd inner flat map (187 entries)
	}
	for _, m := range makers {
		for _, cfg := range cases {
			cfg.Seed = 1
			o := m.mk(cfg)
			want := cfg
			want.fill(o.scheme)
			if got, fp := o.NumBytes(), footprintBytes(want); got != fp {
				t.Errorf("%s %+v: built %d vs analytic %d", m.name, cfg, got, fp)
			}
		}
	}
	for _, c := range []struct{ n, words int }{{10, 2}, {777, 7}, {5000, 64}} {
		cfg := Config{NumBlocks: c.n, BlockWords: c.words}
		if got, want := PathFootprintBytes(c.n, c.words), NewPath(cfg).NumBytes(); got != want {
			t.Errorf("PathFootprintBytes(%d, %d) = %d, built %d", c.n, c.words, got, want)
		}
		if got, want := CircuitFootprintBytes(c.n, c.words), NewCircuit(cfg).NumBytes(); got != want {
			t.Errorf("CircuitFootprintBytes(%d, %d) = %d, built %d", c.n, c.words, got, want)
		}
	}
}

func TestCriteoFootprintRatioMatchesTableVI(t *testing.T) {
	// Table VI: Tree-ORAM ≈ 327% (Kaggle, dim 16) and ≈337% (Terabyte,
	// dim 64) of the raw table. With real Criteo cardinalities the
	// next-power-of-two leaf rounding lands in that band.
	kaggle := []int{1460, 583, 10131227, 2202608, 305, 24, 12517, 633, 3, 93145,
		5683, 8351593, 3194, 27, 14992, 5461306, 10, 5652, 2173, 4,
		7046547, 18, 15, 286181, 105, 142572}
	var oramB, rawB int64
	for _, n := range kaggle {
		oramB += CircuitFootprintBytes(n, 16)
		rawB += int64(n) * 16 * 4
	}
	ratio := float64(oramB) / float64(rawB)
	t.Logf("Kaggle dim16 ORAM/table ratio: %.2f× (paper: 3.27×)", ratio)
	if ratio < 2.0 || ratio > 5.0 {
		t.Fatalf("ratio %.2f far from the paper's ≈3.3×", ratio)
	}
}

// TestFlatPosMapSwap covers the unrolled scan of two-leaf words at sizes
// below, at and just past one four-word step, with a tail and with an odd
// entry count: for every id, Swap returns the previous leaf of exactly
// that id and rewrites only that entry, never the padding half.
func TestFlatPosMapSwap(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 8, 9, 4097} {
		init := make([]uint32, n)
		for i := range init {
			init[i] = uint32(i)*2654435761 | 1
		}
		p := newFlatPosMap(init, nil, "p", &Stats{})
		want := slices.Clone(init)
		leaves := make([]uint32, n)
		for id := 0; id < n; id++ {
			newLeaf := uint32(id) ^ 0xa5a5a5a5
			if got := p.Swap(uint64(id), newLeaf); got != want[id] {
				t.Fatalf("n=%d: Swap(%d) returned %#x, want %#x", n, id, got, want[id])
			}
			want[id] = newLeaf
			unpackWords(leaves, p.words)
			if !slices.Equal(leaves, want) {
				t.Fatalf("n=%d: Swap(%d) changed entries other than its own", n, id)
			}
			if n%2 == 1 && p.words[n/2]>>32 != 0 {
				t.Fatalf("n=%d: Swap(%d) wrote the padding half", n, id)
			}
		}
		if got := p.stats.PosmapScans; got != int64(n*n) {
			t.Fatalf("n=%d: %d entries scanned over %d swaps, want %d", n, got, n, n*n)
		}
	}
}

// TestConfigRejectsNegatives: a negative size or rate is a caller bug and
// dies with a named message, like a non-positive NumBlocks, instead of a
// silent default (EvictionsPerAccess) or a runtime makeslice panic.
func TestConfigRejectsNegatives(t *testing.T) {
	for _, m := range makers {
		for _, field := range []string{"Z", "StashSize", "EvictionsPerAccess"} {
			t.Run(m.name+"/"+field, func(t *testing.T) {
				cfg := Config{NumBlocks: 16, BlockWords: 1}
				switch field {
				case "Z":
					cfg.Z = -1
				case "StashSize":
					cfg.StashSize = -1
				default:
					cfg.EvictionsPerAccess = -1
				}
				want := "oram: " + field + " must not be negative"
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
						t.Fatalf("panic %q, want %q", msg, want)
					}
				}()
				m.mk(cfg)
			})
		}
	}
}

func TestEvictionRateStashPressure(t *testing.T) {
	// The eviction-rate ablation: fewer evictions per access raise stash
	// occupancy; the standard rate of 2 keeps it tiny.
	pressure := func(rate int) int {
		o := NewCircuit(Config{NumBlocks: 1024, BlockWords: 1, Seed: 41,
			EvictionsPerAccess: rate, StashSize: 200})
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 4000; i++ {
			o.Read(uint64(rng.Intn(1024)))
		}
		return o.Stats().MaxStash
	}
	std := pressure(2)
	slow := pressure(1)
	t.Logf("max stash: 2 evictions → %d, 1 eviction → %d", std, slow)
	if std > 10 {
		t.Fatalf("standard rate stash %d exceeds the paper's capacity 10", std)
	}
	if slow < std {
		t.Fatalf("halving the eviction rate should not shrink the stash (%d vs %d)", slow, std)
	}
	// Higher rate must also stay correct.
	fast := pressure(4)
	if fast > std {
		t.Fatalf("doubling evictions should not raise stash pressure (%d vs %d)", fast, std)
	}
}

// TestRecursionInheritsConfig: every recursive position-map level runs
// with the top level's settings — the eviction rate in particular — and
// publishes its trace under a region nested in its parent's.
func TestRecursionInheritsConfig(t *testing.T) {
	o := NewCircuit(Config{NumBlocks: 1 << 14, BlockWords: 2, Seed: 1,
		EvictionsPerAccess: 3, StashSize: 200})
	for i := 0; i < 100; i++ {
		o.Read(uint64(i))
	}
	if o.RecursionDepth() < 1 {
		t.Fatalf("recursion depth %d, want ≥ 1", o.RecursionDepth())
	}
	if s := o.Stats(); s.Evictions != 3*s.Accesses {
		t.Fatalf("%d evictions over %d accesses (all levels), want 3 per access", s.Evictions, s.Accesses)
	}

	// leakcheck canonicalises tree regions by these names.
	tracer := memtrace.NewEnabled()
	d := NewPath(Config{NumBlocks: 2048, BlockWords: 1, Seed: 6, RecursionCutoff: 64,
		Tracer: tracer, Region: "o"})
	tracer.Reset()
	d.Read(3)
	seen := map[string]bool{}
	for _, a := range tracer.Snapshot() {
		seen[a.Region] = true
	}
	want := []string{"o.tree", "o.stash", "o.pm1.tree", "o.pm1.stash",
		"o.pm1.pm2.tree", "o.pm1.pm2.stash", "o.pm1.pm2.posmap"}
	for _, r := range want {
		if !seen[r] {
			t.Errorf("no access under region %q; saw %v", r, seen)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("regions %v, want exactly %v", seen, want)
	}
}
