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

// flatPosMap stores leaves in a plain array, two per uint64 word in the
// payloads' layout (packedWidth: id 2k's leaf is the low half of word k,
// id 2k+1's the high half), and performs a full oblivious scan per Swap —
// ZeroTrace's non-recursive mode. O(n) per access with a tiny constant
// (4 bytes/entry), which beats recursion below the paper's cutoffs (2^16
// blocks for Path, 2^12 for Circuit).
type flatPosMap struct {
	words  []uint64
	n      int // entries
	tracer *memtrace.Tracer
	region string
	stats  *Stats
}

func newFlatPosMap(init []uint32, tracer *memtrace.Tracer, region string, stats *Stats) *flatPosMap {
	w := make([]uint64, packedWidth(len(init)))
	packWords(w, init)
	return &flatPosMap{words: w, n: len(init), tracer: tracer, region: region + RegionSuffixPosmap, stats: stats}
}

// Swap scans the whole map, obliviously extracting the old leaf for id and
// installing newLeaf: every word is read and rewritten, matched or not.
// id's entry is the half of word k = id>>1 that id&1 names, so the mask
// Eq(i, k) & half covers exactly that entry (ids are range-checked);
// OR-accumulating the masked words extracts the old leaf into that half,
// and w ^= (w^both)&m, with newLeaf in both halves, replaces it. The loop
// runs four words per step with one bounds check and one compare: word
// i+j is word k exactly when i = k&^3 and j = k&3, so each step's hit
// mask Eq(i, k&^3) is ANDed with four lane masks computed once per call.
//
// secemb:secret id
func (p *flatPosMap) Swap(id uint64, newLeaf uint32) uint32 {
	p.stats.PosmapScans += int64(p.n)
	p.stats.CmovOps += int64(p.n)
	// Trace at Chi-entry "block" granularity: what a cache-line attacker
	// would see of a packed array of 4-byte leaves.
	p.tracer.TouchRange(p.region, 0, int64((p.n+Chi-1)/Chi), memtrace.Read)
	k := id >> 1
	half := uint64(0xFFFF_FFFF) ^ -(id & 1) // low half for even ids, high half for odd
	both := uint64(newLeaf) * 0x1_0000_0001
	l0 := oblivious.Eq(k&3, 0) & half
	l1 := oblivious.Eq(k&3, 1) & half
	l2 := oblivious.Eq(k&3, 2) & half
	l3 := oblivious.Eq(k&3, 3) & half
	var old uint64
	w := p.words
	i := 0
	for ; i+4 <= len(w); i += 4 {
		e := w[i : i+4 : i+4]
		hit := oblivious.Eq(uint64(i), k&^3)
		m0, m1, m2, m3 := hit&l0, hit&l1, hit&l2, hit&l3
		old |= e[0]&m0 | e[1]&m1 | e[2]&m2 | e[3]&m3
		e[0] ^= (e[0] ^ both) & m0
		e[1] ^= (e[1] ^ both) & m1
		e[2] ^= (e[2] ^ both) & m2
		e[3] ^= (e[3] ^ both) & m3
	}
	for ; i < len(w); i++ {
		m := oblivious.Eq(uint64(i), k) & half
		old |= w[i] & m
		w[i] ^= (w[i] ^ both) & m
	}
	//lint:allow obliviouslint/declass the old leaf is a fresh uniform value revealed once per access (ORAM protocol declassification)
	return uint32(old | old>>32)
}

// NumBytes counts 4 bytes per entry: an odd map's padding half is left
// out, so the paper-scale footprint tables do not move with the packing.
func (p *flatPosMap) NumBytes() int64 { return int64(p.n) * 4 }
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
	if !cfg.recurses() {
		return newFlatPosMap(init, cfg.Tracer, cfg.Region, o.stats)
	}
	// Pack Chi leaves per inner block; the last one's tail stays zero.
	cfg = cfg.posmapConfig()
	cfg.Region = fmt.Sprintf("%s.pm%d", cfg.Region, level+1)
	row := func(b int, words []uint32) { copy(words, init[b*Chi:min((b+1)*Chi, len(init))]) }
	return &oramPosMap{inner: newController(o.scheme, cfg, row, o.rng, o.stats, level+1)}
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
