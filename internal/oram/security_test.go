package oram

import (
	"math/rand"
	"testing"

	"secemb/internal/memtrace"
)

// leafVisits extracts, per access, how often each leaf bucket was read on
// the fetch path.
func leafVisits(tr memtrace.Trace, region string, leaves int) []int {
	counts := make([]int, leaves)
	firstLeafBucket := int64(leaves - 1)
	for _, a := range tr {
		if a.Region == region && a.Op == memtrace.Read && a.Block >= firstLeafBucket {
			counts[a.Block-firstLeafBucket]++
		}
	}
	return counts
}

// TestLeafDistributionUniform is DESIGN.md §4 property 2: whatever the
// logical access sequence — hammering one id or sweeping all of them — the
// distribution of fetched tree paths must be indistinguishable from
// uniform.
func TestLeafDistributionUniform(t *testing.T) {
	const n = 1024
	const accesses = 4096
	patterns := map[string]func(i int) uint64{
		"hammer":     func(i int) uint64 { return 7 },
		"sequential": func(i int) uint64 { return uint64(i % n) },
	}
	for _, m := range makers {
		for pname, pat := range patterns {
			t.Run(m.name+"/"+pname, func(t *testing.T) {
				tracer := memtrace.NewEnabled()
				o := m.mk(Config{NumBlocks: n, BlockWords: 1, Seed: 77, Tracer: tracer, Region: "o"})
				leaves := 1 << uint(o.TreeLevels())
				counts := make([]int, leaves)
				for i := 0; i < accesses; i++ {
					tracer.Reset() // keep the trace per-access sized
					o.Read(pat(i))
					for l, c := range leafVisits(tracer.Snapshot(), "o.tree", leaves) {
						counts[l] += c
					}
				}
				chi := memtrace.ChiSquareUniform(counts)
				crit := memtrace.ChiSquareCritical999(leaves - 1)
				if chi > crit {
					t.Fatalf("leaf histogram rejects uniformity: chi²=%.1f > crit=%.1f", chi, crit)
				}
			})
		}
	}
}

// TestAccessShapeConstant verifies each access touches the same number of
// tree buckets and stash/posmap slots regardless of which block is
// requested — the per-access observable "shape" carries no information.
func TestAccessShapeConstant(t *testing.T) {
	const n = 512
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			tracer := memtrace.NewEnabled()
			o := m.mk(Config{NumBlocks: n, BlockWords: 2, Seed: 5, Tracer: tracer, Region: "o"})
			shape := func(id uint64) (tree, stash, posmap int) {
				tracer.Reset()
				o.Read(id)
				for _, a := range tracer.Snapshot() {
					switch a.Region {
					case "o.tree":
						tree++
					case "o.stash":
						stash++
					case "o.posmap":
						posmap++
					}
				}
				return
			}
			t0, s0, p0 := shape(0)
			rng := rand.New(rand.NewSource(3))
			for trial := 0; trial < 50; trial++ {
				id := uint64(rng.Intn(n))
				tr, st, pm := shape(id)
				if tr != t0 || st != s0 || pm != p0 {
					t.Fatalf("access shape for id %d = (%d,%d,%d), differs from (%d,%d,%d)",
						id, tr, st, pm, t0, s0, p0)
				}
			}
		})
	}
}

// TestPosmapScanCoversWholeMap: the flat position map must touch every
// packed block on every access (no early exit at the match).
func TestPosmapScanCoversWholeMap(t *testing.T) {
	const n = 512
	tracer := memtrace.NewEnabled()
	o := NewCircuit(Config{NumBlocks: n, BlockWords: 1, Seed: 6, Tracer: tracer, Region: "o"})
	tracer.Reset()
	o.Read(3)
	blocks := map[int64]bool{}
	for _, a := range tracer.Snapshot() {
		if a.Region == "o.posmap" {
			blocks[a.Block] = true
		}
	}
	wantBlocks := (n + Chi - 1) / Chi
	if len(blocks) != wantBlocks {
		t.Fatalf("posmap scan touched %d blocks, want %d", len(blocks), wantBlocks)
	}
}

// TestSameIdFreshPaths: repeated access to one id must fetch fresh random
// paths (leaf re-randomization), never the same leaf sequence as a
// deterministic replay.
func TestSameIdFreshPaths(t *testing.T) {
	const n = 4096
	tracer := memtrace.NewEnabled()
	o := NewPath(Config{NumBlocks: n, BlockWords: 1, Seed: 9, Tracer: tracer, Region: "o"})
	leaves := 1 << uint(o.TreeLevels())
	firstLeafBucket := int64(leaves - 1)
	var seq []int64
	for i := 0; i < 64; i++ {
		tracer.Reset()
		o.Read(42)
		for _, a := range tracer.Snapshot() {
			if a.Region == "o.tree" && a.Op == memtrace.Read && a.Block >= firstLeafBucket {
				seq = append(seq, a.Block-firstLeafBucket)
			}
		}
	}
	if len(seq) != 64 {
		t.Fatalf("expected one fetch path per access, got %d", len(seq))
	}
	distinct := map[int64]bool{}
	for _, l := range seq {
		distinct[l] = true
	}
	// With 1024 leaves and 64 draws, ~62 distinct values are expected;
	// fewer than 32 would indicate the path is not re-randomized.
	if len(distinct) < 32 {
		t.Fatalf("only %d distinct leaves over 64 repeated accesses", len(distinct))
	}
}

// TestMutualInformationNearZero ties it together with the leakage metric:
// the first fetched tree path across many accesses must carry (near) zero
// information about which block was requested.
func TestMutualInformationNearZero(t *testing.T) {
	const n = 256
	const secrets = 8
	const trials = 256
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			tracer := memtrace.NewEnabled()
			o := m.mk(Config{NumBlocks: n, BlockWords: 1, Seed: 21, Tracer: tracer, Region: "o"})
			leaves := 1 << uint(o.TreeLevels())
			firstLeafBucket := int64(leaves - 1)
			leak := make([]map[int64]int, secrets)
			for s := 0; s < secrets; s++ {
				leak[s] = map[int64]int{}
				for trial := 0; trial < trials; trial++ {
					tracer.Reset()
					o.Read(uint64(s))
					for _, a := range tracer.Snapshot() {
						if a.Region == "o.tree" && a.Op == memtrace.Read && a.Block >= firstLeafBucket {
							leak[s][a.Block-firstLeafBucket]++
							break
						}
					}
				}
			}
			mi := memtrace.MutualInformationBits(leak)
			// A leaky direct lookup would measure log2(8)=3 bits; sampling
			// noise on uniform paths stays well under half a bit.
			if mi > 0.5 {
				t.Fatalf("mutual information %.3f bits — access pattern leaks the id", mi)
			}
			t.Logf("%s: MI ≈ %.4f bits over %d secrets", m.name, mi, secrets)
		})
	}
}
