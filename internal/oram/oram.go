// Package oram implements the two tree-based Oblivious RAMs the paper uses
// to protect embedding-table lookups (§IV-A2): Path ORAM [Stefanov et al.]
// and Circuit ORAM [Wang et al.], in the software-controller style of
// ZeroTrace (§V-A1) — full-table oblivious scans of the stash and position
// map, recursive position maps, and deterministic reverse-lexicographic
// eviction for Circuit ORAM. Both are one Controller (controller.go); the
// schemes differ in the protocol step it runs (pathAccess, circuitAccess).
//
// Configuration follows the paper: bucket size Z=4; stash sizes 150 (Path)
// and 10 (Circuit); recursion enabled beyond 2^16 blocks for Path and 2^12
// for Circuit; 16× position-map reduction per recursion level.
//
// Blocks carry opaque uint32 payloads; embedding rows are stored as the
// bit patterns of their float32 elements (see internal/core). The tree,
// the stash and the controller's scratch store them packed, two elements
// per uint64 word, so every oblivious blend moves half as many words;
// Update hands its callback the block unpacked.
//
// Security model: the attacker observes accesses to the tree, the position
// map, and the stash *regions* (bucket granularity); the controller's
// registers are private, as in ZeroTrace's cmov-hardened controller. The
// implementation keeps all externally-visible access patterns dependent
// only on public quantities (tree height, stash capacity, access counter)
// plus fresh uniform randomness, and the test suite checks this via
// internal/memtrace. The randomness is a ChaCha8 stream (math/rand/v2)
// keyed by Config.Seed, so the seed is as secret as the position map it
// determines: fixed seeds are for tests, and internal/core keys every ORAM
// it builds from crypto/rand.
package oram

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"secemb/internal/memtrace"
)

// DummyID marks an empty slot. Real block IDs must be below DummyID.
const DummyID = ^uint64(0)

// Chi is the position-map packing factor: each recursive posmap block holds
// Chi leaf positions ("pos-map tree reduction at each recursion level is
// 16×", §V-A1).
const Chi = 16

// Trace region suffixes. Every ORAM structure publishes its accesses under
// a region named <prefix><suffix>, where the prefix is Config.Region plus a
// ".pmN" segment per recursion level. Trace consumers (internal/leakcheck)
// match on these suffixes — in particular, tree regions are the ones whose
// bucket indices must be canonicalized to levels before equality checking.
// Each structure joins prefix and suffix once, at construction, and keeps
// the full name: a touch never builds a string, traced or not.
const (
	RegionSuffixTree   = ".tree"
	RegionSuffixStash  = ".stash"
	RegionSuffixPosmap = ".posmap"
)

// Defaults from the paper (§V-A1).
const (
	DefaultZ                   = 4
	DefaultPathStash           = 150
	DefaultCircuitStash        = 10
	DefaultPathRecursionCutoff = 1 << 16 // enable recursion after 2^16 blocks
	DefaultCircRecursionCutoff = 1 << 12 // enable recursion after 2^12 blocks
)

// Stats counts the work an ORAM controller performs. The enclave cost
// model (internal/perf) converts these counts into deployment-dependent
// latency estimates (Figure 10); benchmarks also measure wall-clock
// directly.
type Stats struct {
	Accesses       int64 // logical accesses served (including posmap-internal)
	BucketsRead    int64 // tree buckets fetched
	BucketsWritten int64 // tree buckets written back
	WordsMoved     int64 // payload words copied between tree and stash
	StashScans     int64 // stash slots touched by oblivious scans
	PosmapScans    int64 // flat posmap entries touched by oblivious scans
	Evictions      int64 // Circuit ORAM eviction passes
	CmovOps        int64 // conditional-select operations (cost-model input)
	MaxStash       int   // high-water mark of real blocks resident in any stash
}

// observeStash raises the MaxStash high-water mark to occupancy.
func (s *Stats) observeStash(occupancy int) {
	if occupancy > s.MaxStash {
		s.MaxStash = occupancy
	}
}

// Config parameterizes an ORAM instance.
type Config struct {
	NumBlocks  int // logical table size n (must be > 0)
	BlockWords int // payload words per block (embedding dim for float32 rows)

	Z         int // blocks per bucket; 0 → DefaultZ
	StashSize int // stash capacity; 0 → scheme default

	// RecursionCutoff: when NumBlocks exceeds this, the position map is
	// stored in a recursive ORAM instead of a flat scanned array.
	// 0 → scheme default. Negative → never recurse.
	RecursionCutoff int

	// EvictionsPerAccess is Circuit ORAM's eviction rate (ignored by Path
	// ORAM). 0 → the standard 2. Lower rates trade bandwidth for stash
	// pressure — the knob behind Circuit ORAM's stash bound and this
	// repository's eviction-rate ablation. Like Z and StashSize, it must
	// not be negative.
	EvictionsPerAccess int

	// Seed keys the ChaCha8 stream leaves are drawn from (little-endian,
	// at the head of an otherwise zero key). Whoever knows it can predict
	// the position map: fixed seeds are for tests, callers use crypto/rand.
	Seed   int64
	Tracer *memtrace.Tracer // optional access-trace instrumentation
	Region string           // trace region prefix; "" → "oram"
}

// fill validates c and resolves every zero field to scheme s's default,
// once, at construction; the access path and footprintBytes read the
// resolved values.
func (c *Config) fill(s scheme) {
	if c.NumBlocks <= 0 {
		panic(fmt.Sprintf("oram: NumBlocks must be positive, got %d", c.NumBlocks))
	}
	if c.BlockWords <= 0 {
		panic(fmt.Sprintf("oram: BlockWords must be positive, got %d", c.BlockWords))
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"Z", c.Z}, {"StashSize", c.StashSize}, {"EvictionsPerAccess", c.EvictionsPerAccess}} {
		if f.v < 0 {
			panic(fmt.Sprintf("oram: %s must not be negative, got %d", f.name, f.v))
		}
	}
	defaultStash, defaultCutoff := DefaultPathStash, DefaultPathRecursionCutoff
	if s == schemeCircuit {
		defaultStash, defaultCutoff = DefaultCircuitStash, DefaultCircRecursionCutoff
	}
	if c.Z == 0 {
		c.Z = DefaultZ
	}
	if c.StashSize == 0 {
		c.StashSize = defaultStash
	}
	if c.RecursionCutoff == 0 {
		c.RecursionCutoff = defaultCutoff
	}
	if c.EvictionsPerAccess == 0 {
		c.EvictionsPerAccess = 2
	}
	if c.Region == "" {
		c.Region = "oram"
	}
}

// recurses reports whether the ORAM a filled c describes keeps its
// position map in a recursive ORAM rather than a flat scanned array.
func (c *Config) recurses() bool {
	return c.RecursionCutoff >= 0 && c.NumBlocks > c.RecursionCutoff
}

// posmapConfig is the filled config of the ORAM that holds c's position
// map when c recurses: Chi leaves per block, every other setting
// inherited.
func (c Config) posmapConfig() Config {
	c.NumBlocks = (c.NumBlocks + Chi - 1) / Chi
	c.BlockWords = Chi
	return c
}

// ORAM is what callers that time or price an access hold: Path ORAM and
// Circuit ORAM both satisfy it.
type ORAM interface {
	// Read returns a copy of block id's payload.
	//
	// secemb:secret id
	Read(id uint64) []uint32
	// Stats returns the cumulative controller work counters (shared
	// across recursive position-map levels).
	Stats() *Stats
}

// uniformLeaf draws a uniform leaf in [0, leaves) where leaves is a power
// of two.
func uniformLeaf(rng *rand.Rand, leaves int) uint32 {
	return uint32(rng.IntN(leaves))
}

// nextPow2 returns the smallest power of two ≥ v (v ≥ 1).
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Levels is the tree geometry every sizing in this repository shares: an
// n-block ORAM with z-slot buckets has 2^Levels leaves (the smallest power
// of two ≥ ⌈n/z⌉), so a root-to-leaf path visits Levels+1 buckets. The
// built trees, FootprintBytes and the analytic cost model (internal/perf)
// all size from it.
func Levels(n, z int) int {
	return bits.Len(uint(nextPow2((n+z-1)/z))) - 1
}

// bitReverse reverses the low `bits` bits of v — the reverse-lexicographic
// eviction-path schedule of Circuit ORAM.
func bitReverse(v uint32, bits int) uint32 {
	var out uint32
	for i := 0; i < bits; i++ {
		out = (out << 1) | (v & 1)
		v >>= 1
	}
	return out
}
