package oram

import (
	"fmt"

	"secemb/internal/memtrace"
	"secemb/internal/oblivious"
)

// PositionMap maps block ids to their current tree leaves. Swap atomically
// returns the old leaf and installs a new one — exactly the operation an
// ORAM access needs, performed obliviously.
type PositionMap interface {
	// Swap atomically replaces id's leaf. The returned *old* leaf is a
	// protocol declassification: it is a fresh uniform value installed by
	// the previous access to id and revealed exactly once, so it carries
	// no information about id (Path/Circuit ORAM security argument).
	//
	// secemb:secret id
	Swap(id uint64, newLeaf uint32) uint32
	NumBytes() int64
	Depth() int
}

// flatPosMap stores leaves in a plain array and performs a full oblivious
// scan per Swap — ZeroTrace's non-recursive mode. O(n) per access with a
// tiny constant (4 bytes/entry), which beats recursion below the paper's
// cutoffs (2^16 blocks for Path, 2^12 for Circuit).
type flatPosMap struct {
	leaves []uint32
	tracer *memtrace.Tracer
	region string
	stats  *Stats
}

func newFlatPosMap(init []uint32, tracer *memtrace.Tracer, region string, stats *Stats) *flatPosMap {
	l := make([]uint32, len(init))
	copy(l, init)
	return &flatPosMap{leaves: l, tracer: tracer, region: region + RegionSuffixPosmap, stats: stats}
}

// Swap scans the whole map, obliviously extracting the old leaf for id and
// installing newLeaf: every entry is read and rewritten, matched or not.
// Exactly one entry matches (ids are range-checked), so OR-accumulating
// the masked entries extracts it, and l ^= (l^newLeaf)&m replaces it.
// The loop runs four entries per step, one bounds check per step.
//
// secemb:secret id
func (p *flatPosMap) Swap(id uint64, newLeaf uint32) uint32 {
	p.stats.PosmapScans += int64(len(p.leaves))
	p.stats.CmovOps += int64(len(p.leaves))
	// Trace at Chi-entry "block" granularity: what a cache-line attacker
	// would see of a packed uint32 array.
	p.tracer.TouchRange(p.region, 0, int64((len(p.leaves)+Chi-1)/Chi), memtrace.Read)
	var old uint32
	l := p.leaves
	i := 0
	for ; i+4 <= len(l); i += 4 {
		e := l[i : i+4 : i+4]
		m0 := uint32(oblivious.Eq(uint64(i), id))
		m1 := uint32(oblivious.Eq(uint64(i+1), id))
		m2 := uint32(oblivious.Eq(uint64(i+2), id))
		m3 := uint32(oblivious.Eq(uint64(i+3), id))
		old |= e[0]&m0 | e[1]&m1 | e[2]&m2 | e[3]&m3
		e[0] ^= (e[0] ^ newLeaf) & m0
		e[1] ^= (e[1] ^ newLeaf) & m1
		e[2] ^= (e[2] ^ newLeaf) & m2
		e[3] ^= (e[3] ^ newLeaf) & m3
	}
	for ; i < len(l); i++ {
		m := uint32(oblivious.Eq(uint64(i), id))
		old |= l[i] & m
		l[i] ^= (l[i] ^ newLeaf) & m
	}
	//lint:allow obliviouslint/declass the old leaf is a fresh uniform value revealed once per access (ORAM protocol declassification)
	return old
}

func (p *flatPosMap) NumBytes() int64 { return int64(len(p.leaves)) * 4 }
func (p *flatPosMap) Depth() int      { return 0 }

// oramPosMap stores the position map in a smaller ORAM whose blocks each
// pack Chi leaves — one recursion level. The inner ORAM's own position map
// recurses further until it fits under the cutoff.
type oramPosMap struct {
	inner *Controller
}

// newPosMap builds the position map of controller o, whose blocks start
// at the leaves in init: a flat scanned array at or below the recursion
// cutoff, otherwise a controller of o's own scheme (Path ORAM recursion
// uses Path ORAMs and Circuit uses Circuit, as in ZeroTrace) at level+1.
// The inner controller runs o's filled Config — every setting is
// inherited; only the shape and the nested trace region change.
func newPosMap(o *Controller, init []uint32, level int) PositionMap {
	cfg := o.cfg
	n := len(init)
	if cfg.RecursionCutoff < 0 || n <= cfg.RecursionCutoff {
		return newFlatPosMap(init, cfg.Tracer, cfg.Region, o.stats)
	}
	// Pack Chi leaves per inner block.
	blocks := (n + Chi - 1) / Chi
	payloads := make([][]uint32, blocks)
	for b := 0; b < blocks; b++ {
		words := make([]uint32, Chi)
		for j := 0; j < Chi; j++ {
			idx := b*Chi + j
			if idx < n {
				words[j] = init[idx]
			}
		}
		payloads[b] = words
	}
	cfg.NumBlocks = blocks
	cfg.BlockWords = Chi
	cfg.Region = fmt.Sprintf("%s.pm%d", cfg.Region, level+1)
	return &oramPosMap{inner: newController(o.scheme, cfg, payloads, o.rng, o.stats, level+1)}
}

// Swap reads the inner block holding id's entry, obliviously swaps the
// packed slot, and writes the block back — one inner ORAM access.
//
// secemb:secret id
func (p *oramPosMap) Swap(id uint64, newLeaf uint32) uint32 {
	blockID := id / Chi
	slot := id % Chi
	var old uint64
	p.inner.Update(blockID, func(words []uint32) {
		for j := 0; j < Chi; j++ {
			m := oblivious.Eq(uint64(j), slot)
			old = oblivious.Select64(m, uint64(words[j]), old)
			words[j] = uint32(oblivious.Select64(m, uint64(newLeaf), uint64(words[j])))
		}
	})
	//lint:allow obliviouslint/declass the old leaf is a fresh uniform value revealed once per access (ORAM protocol declassification)
	return uint32(old)
}

func (p *oramPosMap) NumBytes() int64 { return p.inner.NumBytes() }
func (p *oramPosMap) Depth() int      { return 1 + p.inner.RecursionDepth() }
