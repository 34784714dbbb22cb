package oram

import (
	"math/bits"

	"secemb/internal/memtrace"
	"secemb/internal/oblivious"
)

// NewCircuit builds a Circuit ORAM over cfg.NumBlocks zero-initialized
// blocks.
func NewCircuit(cfg Config) *Controller { return build(schemeCircuit, cfg, nil) }

// NewCircuitInit builds a Circuit ORAM whose blocks start with the
// payloads row writes, as NewPathInit does.
func NewCircuitInit(cfg Config, row func(id int, words []uint32)) *Controller {
	return build(schemeCircuit, cfg, row)
}

// circuitAccess is the Circuit ORAM protocol step (§IV-A2): the read
// phase pulls only the requested block off the fetched path (not the whole
// path, unlike Path ORAM), and eviction runs as a single root→leaf pass
// guided by metadata prepared in two cheap scans (prepare-deepest /
// prepare-target), over two deterministically-chosen paths per access
// (reverse-lexicographic order). The stash stays an order of magnitude
// smaller than Path ORAM's (10 vs 150 in the paper's setup), which is why
// the paper finds Circuit ORAM the fastest traditional oblivious baseline.
//
// secemb:secret id
func (o *Controller) circuitAccess(id uint64, oldLeaf, newLeaf uint32, fn func(data []uint32)) {
	t := o.tree

	// Read phase: scan the path, obliviously lifting only the requested
	// block into the register buffer; every slot is read and re-written
	// so the trace is slot-position independent. A bucket's slots go by
	// in tiles of four, OR-ed into the zeroed buffer under their match
	// masks (a final tile short of four repeats the bucket's last slot
	// under a zero mask). The OR equals the blend d ^= (d^s)&m because the
	// buffer starts at zero and each live block sits exactly once across
	// path and stash.
	clear(o.buf)
	found := uint64(0)
	for level := 0; level <= t.levels; level++ {
		bucket := t.nodeIndex(oldLeaf, level)
		t.touchBucket(bucket, memtrace.Read)
		base := t.slotBase(bucket)
		last := base + t.z - 1
		for s := base; s <= last; s += 4 {
			var m [4]uint64
			for k := range m {
				if s+k <= last {
					m[k] = oblivious.Eq(t.ids[s+k], id)
					t.ids[s+k] = oblivious.Select64(m[k], DummyID, t.ids[s+k])
					found |= m[k]
					o.stats.CmovOps++
				}
			}
			oblivious.OrTile(o.buf, t.slotData(s), t.slotData(min(s+1, last)),
				t.slotData(min(s+2, last)), t.slotData(min(s+3, last)), m[0], m[1], m[2], m[3])
		}
		t.touchBucket(bucket, memtrace.Write)
	}
	// The block may instead be resident in the stash.
	stashHit := o.stash.findAndRemove(id, o.buf)
	//lint:allow obliviouslint/branch invariant abort: a missing block means a broken controller; the process dies rather than serving garbage
	if found == 0 && stashHit == 0 {
		// Deliberately no id in the message: a valid secret must not
		// surface even on an abort path.
		panic("oram: block missing (invariant violation)")
	}

	o.serve(fn)
	o.stash.insert(id, newLeaf, o.buf)

	// Evictions along reverse-lexicographic paths (fill resolved the rate).
	for e := 0; e < o.cfg.EvictionsPerAccess; e++ {
		o.evictOnce(bitReverse(o.evictG%uint32(t.leaves), t.levels))
		o.evictG++
	}
}

// deepestLevel returns the deepest tree level at which a block assigned to
// blockLeaf may reside on the path to pathLeaf.
func (t *tree) deepestLevel(blockLeaf, pathLeaf uint32) int {
	return t.levels - bits.Len32(blockLeaf^pathLeaf)
}

// evictOnce performs one Circuit ORAM eviction along the path to leaf p:
// two metadata scans (prepare-deepest, prepare-target) followed by a
// single root→leaf pass that moves at most one block per level. Indices in
// the metadata arrays: 0 = stash, i = tree level i-1. The arrays and the
// held block are the controller's scratch, reset here.
func (o *Controller) evictOnce(p uint32) {
	t := o.tree
	o.stats.Evictions++
	nLev := t.levels + 2
	const none = -1

	deepest := o.deepest         // source index whose block should sink to ≥ this level
	deepestSlot := o.deepestSlot // slot (stash index or tree slot) of that level's deepest block
	target := o.target
	for i := range deepest {
		deepest[i], target[i], deepestSlot[i] = none, none, none
	}

	// --- prepare_deepest: forward scan root-ward → leaf-ward.
	// Stash is pseudo-level 0.
	src, goal := none, none
	{
		best, bestSlot := none, none
		o.stash.scanNote()
		for i := 0; i < o.stash.cap; i++ {
			if o.stash.ids[i] == DummyID {
				continue
			}
			if d := t.deepestLevel(o.stash.leaves[i], p); d > best {
				best, bestSlot = d, i
			}
		}
		if best >= 0 {
			src, goal = 0, best+1 // block can occupy metadata indices ≤ best+1
			deepestSlot[0] = bestSlot
		}
	}
	for i := 1; i < nLev; i++ {
		if goal >= i {
			deepest[i] = src
		}
		level := i - 1
		bucket := t.nodeIndex(p, level)
		t.touchBucket(bucket, memtrace.Read)
		base := t.slotBase(bucket)
		best, bestSlot := none, none
		for s := base; s < base+t.z; s++ {
			o.stats.CmovOps++
			if t.ids[s] == DummyID {
				continue
			}
			if d := t.deepestLevel(t.leafOf[s], p); d > best {
				best, bestSlot = d, s
			}
		}
		deepestSlot[i] = bestSlot
		if best+1 > goal && best >= 0 {
			goal = best + 1
			src = i
		}
	}

	// --- prepare_target: backward scan leaf-ward → stash.
	dest, srcT := none, none
	for i := nLev - 1; i >= 0; i-- {
		if i == srcT {
			target[i] = dest
			dest, srcT = none, none
		}
		hasSpace := false
		if i > 0 {
			bucket := t.nodeIndex(p, i-1)
			base := t.slotBase(bucket)
			for s := base; s < base+t.z; s++ {
				if t.ids[s] == DummyID {
					hasSpace = true
					break
				}
			}
		}
		if ((dest == none && hasSpace) || target[i] != none) && deepest[i] != none {
			srcT = deepest[i]
			dest = i
		}
	}

	// --- evict_once: single root→leaf pass holding at most one block.
	holdID := DummyID
	var holdLeaf uint32
	holdData := o.hold
	holdDest := none
	for i := 0; i < nLev; i++ {
		writeID := DummyID
		var writeLeaf uint32
		if holdID != DummyID && i == holdDest {
			writeID, writeLeaf = holdID, holdLeaf
			copy(o.buf, holdData)
			holdID, holdDest = DummyID, none
		}
		if target[i] != none {
			// Pick up this level's deepest block.
			slot := deepestSlot[i]
			if slot == none {
				panic("oram: circuit eviction metadata inconsistent")
			}
			if i == 0 {
				holdID = o.stash.ids[slot]
				holdLeaf = o.stash.leaves[slot]
				copy(holdData, o.stash.slotData(slot))
				o.stash.ids[slot] = DummyID
			} else {
				holdID = t.ids[slot]
				holdLeaf = t.leafOf[slot]
				copy(holdData, t.slotData(slot))
				t.ids[slot] = DummyID
			}
			holdDest = target[i]
		}
		if i > 0 {
			bucket := t.nodeIndex(p, i-1)
			if writeID != DummyID {
				base := t.slotBase(bucket)
				stored := false
				for s := base; s < base+t.z; s++ {
					if t.ids[s] == DummyID && !stored {
						t.ids[s] = writeID
						t.leafOf[s] = writeLeaf
						copy(t.slotData(s), o.buf)
						stored = true
					}
				}
				if !stored {
					panic("oram: circuit eviction wrote into full bucket")
				}
				o.stats.WordsMoved += int64(t.words)
			}
			t.touchBucket(bucket, memtrace.Write)
		}
	}
	if holdID != DummyID {
		panic("oram: circuit eviction finished still holding a block")
	}
}
