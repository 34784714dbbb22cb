package oram

import (
	"encoding/binary"
	"math/rand/v2"
)

// scheme selects the access protocol a Controller runs. It is public
// configuration, fixed at construction.
type scheme int

const (
	schemePath scheme = iota
	schemeCircuit
)

// Controller is the ZeroTrace-style software ORAM controller both schemes
// share: one bucket tree, one scanned stash and one (possibly recursive)
// position map. Path ORAM and Circuit ORAM differ only in the protocol
// step Update runs between the position-map swap and the stash
// observation (pathAccess, circuitAccess) and in their default stash size
// and recursion cutoff.
type Controller struct {
	scheme scheme
	cfg    Config
	tree   *tree
	stash  *stash
	posmap PositionMap
	rng    *rand.Rand
	stats  *Stats
	buf    []uint64 // scratch block, packed (packWords)
	view   []uint32 // buf unpacked: the payload Update hands its callback
	evictG uint32   // Circuit ORAM's reverse-lexicographic eviction counter

	// Circuit eviction scratch, sized once so an access allocates nothing:
	// the per-level metadata of evictOnce (levels+2 entries each) and the
	// block it holds on the way down.
	deepest, deepestSlot, target []int
	hold                         []uint64
}

// build fills cfg with the scheme's defaults and assembles the top-level
// controller, its leaves drawn from ChaCha8 keyed by cfg.Seed.
func build(s scheme, cfg Config, row func(id int, words []uint32)) *Controller {
	cfg.fill(s)
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(cfg.Seed))
	return newController(s, cfg, row, rand.New(rand.NewChaCha8(key)), &Stats{}, 0)
}

// newController assembles one level of the hierarchy from a filled cfg:
// tree, uniform leaf assignment, bulk load, stash spill, payloads (row,
// if not nil, in id order, each packed straight into its block's slot),
// position map. level is the recursion level (0 = the data ORAM);
// cfg.Region is already this level's trace region. rng and stats are
// shared by all levels.
func newController(s scheme, cfg Config, row func(id int, words []uint32), rng *rand.Rand, stats *Stats, level int) *Controller {
	t := newTree(cfg.NumBlocks, cfg.Z, cfg.BlockWords, cfg.Tracer, cfg.Region, stats)
	leafAssign := randLeaves(cfg.NumBlocks, t.leaves, rng)
	place, spill := t.bulkLoad(leafAssign)
	o := &Controller{
		scheme:      s,
		cfg:         cfg,
		tree:        t,
		stash:       newStash(cfg.StashSize, t.width, cfg.Tracer, cfg.Region, stats),
		rng:         rng,
		stats:       stats,
		buf:         make([]uint64, t.width),
		view:        make([]uint32, cfg.BlockWords),
		deepest:     make([]int, t.levels+2),
		deepestSlot: make([]int, t.levels+2),
		target:      make([]int, t.levels+2),
		hold:        make([]uint64, t.width),
	}
	// The empty stash fills from its first free slot, so spill[k] lands
	// in slot k, where the payload loop below finds it.
	for _, blk := range spill {
		o.stash.insert(uint64(blk), leafAssign[blk], o.buf)
	}
	if row != nil {
		for blk, p := range place {
			clear(o.view)
			row(blk, o.view)
			if p >= 0 {
				packWords(t.slotData(p), o.view)
			} else {
				packWords(o.stash.slotData(^p), o.view)
			}
		}
	}
	o.posmap = newPosMap(o, leafAssign, level)
	return o
}

// Read returns a copy of block id.
//
// secemb:secret id
func (o *Controller) Read(id uint64) []uint32 {
	out := make([]uint32, o.cfg.BlockWords)
	o.Update(id, func(data []uint32) { copy(out, data) })
	return out
}

// Update applies fn to block id within one access: the position map
// yields the block's current leaf and installs a fresh uniform one, then
// the scheme's protocol step fetches that path, serves the block and
// evicts.
//
// secemb:secret id
func (o *Controller) Update(id uint64, fn func(data []uint32)) {
	checkID(id, o.cfg.NumBlocks)
	o.stats.Accesses++

	newLeaf := uniformLeaf(o.rng, o.tree.leaves)
	oldLeaf := o.posmap.Swap(id, newLeaf)

	// A direct two-way call, not a func-valued field: obliviouslint must
	// see the callee to audit what it does with the secret id.
	if o.scheme == schemePath {
		o.pathAccess(id, oldLeaf, newLeaf, fn)
	} else {
		o.circuitAccess(id, oldLeaf, newLeaf, fn)
	}
	o.stats.observeStash(o.stash.occupancy())
}

// serve runs fn on the scratch block: unpacked into view, then packed back.
func (o *Controller) serve(fn func(data []uint32)) {
	if fn == nil {
		return
	}
	unpackWords(o.view, o.buf)
	fn(o.view)
	packWords(o.buf, o.view)
}

// Stats returns the shared work counters (including recursion levels).
func (o *Controller) Stats() *Stats { return o.stats }

// NumBytes returns tree + stash + posmap footprint across all levels.
func (o *Controller) NumBytes() int64 {
	n := o.tree.NumBytes()
	n += int64(o.stash.cap) * int64(12+8*o.stash.width)
	n += o.posmap.NumBytes()
	return n
}

// RecursionDepth reports the number of recursive posmap levels.
func (o *Controller) RecursionDepth() int { return o.posmap.Depth() }

// TreeLevels exposes the tree height L (path length L+1). Only tests read
// it, to check built trees against the analytic sizing (Levels).
func (o *Controller) TreeLevels() int { return o.tree.levels }
