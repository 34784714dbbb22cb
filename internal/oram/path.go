package oram

import (
	"secemb/internal/memtrace"
	"secemb/internal/oblivious"
)

// NewPath builds a Path ORAM over cfg.NumBlocks zero-initialized blocks.
func NewPath(cfg Config) *Controller { return build(schemePath, cfg, nil) }

// NewPathInit builds a Path ORAM whose blocks start with the payloads row
// writes: row(id, words) fills block id's cfg.BlockWords elements, which
// start zeroed. It is called once per block, in increasing id order.
func NewPathInit(cfg Config, row func(id int, words []uint32)) *Controller {
	return build(schemePath, cfg, row)
}

// pathAccess is the Path ORAM protocol step (§IV-A2): the whole root→leaf
// path the position map named is pulled into the stash, the block is
// served and given its fresh leaf, and the path is written back greedily
// with stash blocks pushed as deep as they can legally go.
//
// secemb:secret id
func (o *Controller) pathAccess(id uint64, oldLeaf, newLeaf uint32, fn func(data []uint32)) {
	t := o.tree

	// Read path: move every real block on the path into the stash. Each
	// slot costs one oblivious stash scan whether it is real or a dummy,
	// as in ZeroTrace's hardened controller.
	for level := 0; level <= t.levels; level++ {
		bucket := t.nodeIndex(oldLeaf, level)
		t.touchBucket(bucket, memtrace.Read)
		base := t.slotBase(bucket)
		for s := base; s < base+t.z; s++ {
			real := t.ids[s] != DummyID
			o.stash.insertCond(oblivious.Mask64(real), t.ids[s], t.leafOf[s], t.slotData(s))
			t.ids[s] = DummyID
			o.stats.WordsMoved += int64(t.words)
		}
	}

	// Serve the request from the stash and install the new leaf.
	found := o.stash.readBlock(id, o.buf)
	//lint:allow obliviouslint/branch invariant abort: a missing block means a broken controller; the process dies rather than serving garbage
	if found == 0 {
		// Deliberately no id in the message: a valid secret must not
		// surface even on an abort path.
		panic("oram: block missing (invariant violation)")
	}
	o.serve(fn)
	o.stash.updateBlock(id, newLeaf, o.buf)

	// Write back: fill the path leaf→root, pulling eligible stash blocks
	// as deep as possible.
	for level := t.levels; level >= 0; level-- {
		bucket := t.nodeIndex(oldLeaf, level)
		base := t.slotBase(bucket)
		for s := base; s < base+t.z; s++ {
			var blkID uint64
			var blkLeaf uint32
			got := o.stash.extractEligible(oldLeaf, level, t.levels, &blkID, &blkLeaf, o.buf)
			t.ids[s] = oblivious.Select64(got, blkID, DummyID)
			t.leafOf[s] = uint32(oblivious.Select64(got, uint64(blkLeaf), 0))
			oblivious.CondCopy64(got, t.slotData(s), o.buf)
			o.stats.WordsMoved += int64(t.words)
		}
		t.touchBucket(bucket, memtrace.Write)
	}
}
