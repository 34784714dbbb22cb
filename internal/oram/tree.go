package oram

import (
	"fmt"
	"math/rand"

	"secemb/internal/memtrace"
)

// tree is the bucket tree shared by both ORAM schemes: a complete binary
// tree of height L with 2^L leaves, each bucket holding Z slots. Slot
// metadata (id, assigned leaf) and payload words are stored in flat arrays
// for locality.
type tree struct {
	levels int // L; path length is L+1 buckets
	leaves int // 2^L
	z      int
	words  int // payload words per block

	ids    []uint64 // per slot; DummyID = empty
	leafOf []uint32 // per slot; valid when ids[i] != DummyID
	data   []uint32 // per slot × words

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
	t := &tree{
		levels: levels,
		leaves: leaves,
		z:      z,
		words:  words,
		ids:    make([]uint64, buckets*z),
		leafOf: make([]uint32, buckets*z),
		data:   make([]uint32, buckets*z*words),
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

// slotData returns the payload words of slot s (aliasing tree storage).
func (t *tree) slotData(s int) []uint32 { return t.data[s*t.words : (s+1)*t.words] }

// touchBucket records one bucket access on the trace and in stats.
func (t *tree) touchBucket(bucket int, op memtrace.Op) {
	if op == memtrace.Read {
		t.stats.BucketsRead++
	} else {
		t.stats.BucketsWritten++
	}
	t.tracer.Touch(t.region, int64(bucket), op)
}

// bulkLoad places n pre-assigned blocks into the tree bottom-up, returning
// the blocks that did not fit anywhere on their paths (they go to the
// caller's stash). leafAssign[i] is block i's leaf; payload(i) returns
// block i's words (may be nil for all-zero). This runs once at
// construction: it gives a secrecy-preserving initial layout (uniform
// random leaves) without paying one full ORAM access per block.
func (t *tree) bulkLoad(n int, leafAssign []uint32, payload func(i int) []uint32) []int {
	// Group block indices by leaf.
	byLeaf := make([][]int, t.leaves)
	for i := 0; i < n; i++ {
		l := leafAssign[i]
		byLeaf[l] = append(byLeaf[l], i)
	}
	store := func(bucket, blk int) {
		base := t.slotBase(bucket)
		for s := base; s < base+t.z; s++ {
			if t.ids[s] == DummyID {
				t.ids[s] = uint64(blk)
				t.leafOf[s] = leafAssign[blk]
				if p := payload(blk); p != nil {
					copy(t.slotData(s), p)
				}
				return
			}
		}
		panic("oram: bulkLoad store into full bucket")
	}
	// current[k] holds the unplaced blocks belonging to subtree k of the
	// level being processed.
	current := byLeaf
	for level := t.levels; level >= 0; level-- {
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
				return rest // root leftovers → stash
			}
			next[node/2] = append(next[node/2], rest...)
		}
		current = next
	}
	return nil
}

// NumBytes returns the storage footprint of the bucket tree: payload plus
// per-slot metadata (8-byte id + 4-byte leaf), matching how Table VI
// accounts for ORAM dummy-block overhead.
func (t *tree) NumBytes() int64 {
	slots := int64(len(t.ids))
	return slots*(8+4) + int64(len(t.data))*4
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
