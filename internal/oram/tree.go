package oram

import (
	"fmt"
	"math/rand/v2"

	"secemb/internal/memtrace"
)

// tree is the bucket tree shared by both ORAM schemes: a complete binary
// tree of height L with 2^L leaves, each bucket holding Z slots. Slot
// metadata (id, assigned leaf) and packed payload words are stored in flat
// arrays for locality.
type tree struct {
	levels int // L; path length is L+1 buckets
	leaves int // 2^L
	z      int
	words  int // payload elements per block
	width  int // packed payload words per block, packedWidth(words)

	ids    []uint64 // per slot; DummyID = empty
	leafOf []uint32 // per slot; valid when ids[i] != DummyID
	data   []uint64 // per slot × width, in packWords' layout

	tracer *memtrace.Tracer
	region string
	stats  *Stats
}

// newTree sizes the bucket tree for n blocks: leaves = nextPow2(⌈n/Z⌉),
// giving ~50% slot utilization — the sizing software ORAMs for SGX use,
// and the source of Table VI's >3× ORAM memory blow-up once recursive
// position maps are added.
func newTree(n, z, words int, tracer *memtrace.Tracer, region string, stats *Stats) *tree {
	levels := Levels(n, z)
	leaves := 1 << levels
	buckets := 2*leaves - 1
	width := packedWidth(words)
	t := &tree{
		levels: levels,
		leaves: leaves,
		z:      z,
		words:  words,
		width:  width,
		ids:    make([]uint64, buckets*z),
		leafOf: make([]uint32, buckets*z),
		data:   make([]uint64, buckets*z*width),
		tracer: tracer,
		region: region + RegionSuffixTree,
		stats:  stats,
	}
	for i := range t.ids {
		t.ids[i] = DummyID
	}
	return t
}

// nodeIndex returns the bucket index of the level-l node on the path to
// leaf (level 0 = root, level L = leaf bucket).
func (t *tree) nodeIndex(leaf uint32, level int) int {
	return (1 << level) - 1 + int(leaf>>(t.levels-level))
}

// slotBase returns the first slot index of bucket b.
func (t *tree) slotBase(bucket int) int { return bucket * t.z }

// slotData returns the packed payload of slot s (aliasing tree storage).
func (t *tree) slotData(s int) []uint64 { return t.data[s*t.width : (s+1)*t.width] }

// touchBucket records one bucket access on the trace and in stats.
func (t *tree) touchBucket(bucket int, op memtrace.Op) {
	if op == memtrace.Read {
		t.stats.BucketsRead++
	} else {
		t.stats.BucketsWritten++
	}
	t.tracer.Touch(t.region, int64(bucket), op)
}

// bulkLoad places the blocks leafAssign assigns (block i to leaf
// leafAssign[i]) into the tree bottom-up, setting each slot's id and leaf,
// and returns where every block landed: place[i] is block i's tree slot,
// or ^k when block i is spill[k], the k-th block that fit nowhere on its
// path (the caller's stash takes those, in spill order). Payloads are the
// caller's to write. This runs once at construction: it gives a
// secrecy-preserving initial layout (uniform random leaves) without paying
// one full ORAM access per block.
func (t *tree) bulkLoad(leafAssign []uint32) (place, spill []int) {
	place = make([]int, len(leafAssign))
	// Group block indices by leaf.
	byLeaf := make([][]int, t.leaves)
	for i, l := range leafAssign {
		byLeaf[l] = append(byLeaf[l], i)
	}
	store := func(bucket, blk int) {
		base := t.slotBase(bucket)
		for s := base; s < base+t.z; s++ {
			if t.ids[s] == DummyID {
				t.ids[s] = uint64(blk)
				t.leafOf[s] = leafAssign[blk]
				place[blk] = s
				return
			}
		}
		panic("oram: bulkLoad store into full bucket")
	}
	// current[k] holds the unplaced blocks belonging to subtree k of the
	// level being processed.
	current := byLeaf
	for level := t.levels; ; level-- {
		width := 1 << level
		next := make([][]int, width/2)
		for node := 0; node < width; node++ {
			bucket := width - 1 + node
			pending := current[node]
			fit := len(pending)
			if fit > t.z {
				fit = t.z
			}
			for _, blk := range pending[:fit] {
				store(bucket, blk)
			}
			rest := pending[fit:]
			if level == 0 {
				for k, blk := range rest {
					place[blk] = ^k
				}
				return place, rest // root leftovers → stash
			}
			next[node/2] = append(next[node/2], rest...)
		}
		current = next
	}
}

// NumBytes returns the storage footprint of the bucket tree: packed
// payload plus per-slot metadata (8-byte id + 4-byte leaf), matching how
// Table VI accounts for ORAM dummy-block overhead.
func (t *tree) NumBytes() int64 {
	slots := int64(len(t.ids))
	return slots*(8+4) + int64(len(t.data))*8
}

// packedWidth is the number of uint64 words n uint32 elements pack into.
// Every payload the controller stores or holds, and the flat position
// map's leaves, use one layout: element 2j is the low half of word j and
// element 2j+1 its high half; an odd n leaves the last high half zero.
// Go does not vectorise, so an oblivious blend costs a fixed number of
// scalar operations per word, and packing halves the word count.
func packedWidth(n int) int { return (n + 1) / 2 }

// packWords packs the elements of src into the first packedWidth(len(src))
// words of dst. It runs eight elements per step, one bounds check per
// step: construction packs every table row through it.
//
// secemb:secret dst src
func packWords(dst []uint64, src []uint32) {
	dst = dst[:packedWidth(len(src))]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s, d := src[i:i+8:i+8], dst[i/2:i/2+4:i/2+4]
		d[0] = uint64(s[0]) | uint64(s[1])<<32
		d[1] = uint64(s[2]) | uint64(s[3])<<32
		d[2] = uint64(s[4]) | uint64(s[5])<<32
		d[3] = uint64(s[6]) | uint64(s[7])<<32
	}
	for ; i+1 < len(src); i += 2 {
		dst[i/2] = uint64(src[i]) | uint64(src[i+1])<<32
	}
	if len(src)%2 == 1 {
		dst[len(dst)-1] = uint64(src[len(src)-1])
	}
}

// unpackWords writes the len(dst) elements packed in src into dst, the
// inverse of packWords.
//
// secemb:secret dst src
func unpackWords(dst []uint32, src []uint64) {
	src = src[:packedWidth(len(dst))]
	for j := 0; j+1 < len(dst); j += 2 {
		dst[j], dst[j+1] = uint32(src[j/2]), uint32(src[j/2]>>32)
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = uint32(src[len(src)-1])
	}
}

// checkID panics on out-of-range block ids (caller bug, not secret-
// dependent: the table size is public).
//
// secemb:secret id
func checkID(id uint64, n int) {
	//lint:allow obliviouslint/branch bounds abort: id validity is public policy, enforced before any secret-dependent work
	if id >= uint64(n) {
		//lint:allow obliviouslint/call the printed id is out of range, hence not a valid secret
		panic(fmt.Sprintf("oram: block id %d out of %d", id, n))
	}
}

// randLeaves draws n uniform leaves.
func randLeaves(n, leaves int, rng *rand.Rand) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uniformLeaf(rng, leaves)
	}
	return out
}
