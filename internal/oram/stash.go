package oram

import (
	"fmt"

	"secemb/internal/memtrace"
	"secemb/internal/oblivious"
)

// stash is the controller-private block buffer. Every operation scans the
// full capacity so the work done is independent of the occupancy or of
// which slot matches — the software analogue of ZeroTrace's cmov-hardened
// stash. Scans are counted in Stats (the enclave cost model charges them)
// and surfaced on the trace as a full sweep of the stash region.
type stash struct {
	cap   int
	width int // packed payload words per block

	ids    []uint64 // DummyID = free
	leaves []uint32
	data   []uint64 // cap × width, in packWords' layout

	tracer *memtrace.Tracer
	region string
	stats  *Stats
}

func newStash(capacity, width int, tracer *memtrace.Tracer, region string, stats *Stats) *stash {
	s := &stash{
		cap:    capacity,
		width:  width,
		ids:    make([]uint64, capacity),
		leaves: make([]uint32, capacity),
		data:   make([]uint64, capacity*width),
		tracer: tracer,
		region: region + RegionSuffixStash,
		stats:  stats,
	}
	for i := range s.ids {
		s.ids[i] = DummyID
	}
	return s
}

func (s *stash) slotData(i int) []uint64 { return s.data[i*s.width : (i+1)*s.width] }

// scanNote records one full oblivious sweep of the stash.
func (s *stash) scanNote() {
	s.stats.StashScans += int64(s.cap)
	s.stats.CmovOps += int64(s.cap)
	s.tracer.TouchRange(s.region, 0, int64(s.cap), memtrace.Read)
}

// occupancy counts resident real blocks (test/metric helper; not part of
// the oblivious access path).
func (s *stash) occupancy() int {
	n := 0
	for _, id := range s.ids {
		if id != DummyID {
			n++
		}
	}
	return n
}

// insert places a block into some free slot via a full scan. Exactly one
// free slot receives the block; a full stash is a (negligible-probability)
// overflow and panics, as in ZeroTrace.
//
// secemb:secret id leaf payload
func (s *stash) insert(id uint64, leaf uint32, payload []uint64) {
	s.insertCond(^uint64(0), id, leaf, payload)
	s.stats.observeStash(s.occupancy())
}

// insertCond is insert gated by a mask: when real is zero the scan still
// runs (same work, same trace) but nothing is stored. This lets the path
// read phase process dummy slots at identical cost to real ones.
//
// secemb:secret real id leaf payload
func (s *stash) insertCond(real uint64, id uint64, leaf uint32, payload []uint64) {
	s.scanNote()
	placed := uint64(0) // becomes all-ones once stored
	for i := 0; i < s.cap; i++ {
		free := oblivious.Eq(s.ids[i], DummyID)
		doStore := real & free &^ placed
		s.ids[i] = oblivious.Select64(doStore, id, s.ids[i])
		s.leaves[i] = uint32(oblivious.Select64(doStore, uint64(leaf), uint64(s.leaves[i])))
		oblivious.CondCopy64(doStore, s.slotData(i), payload)
		placed |= doStore
	}
	//lint:allow obliviouslint/branch overflow abort: negligible-probability stash overflow kills the process rather than continuing insecurely (ZeroTrace does the same)
	if real != 0 && placed == 0 {
		panic(fmt.Sprintf("oram: stash overflow (capacity %d)", s.cap))
	}
}

// extractEligible removes (and returns through the out parameters) one
// stash block that may reside at `level` on the path to pathLeaf, scanning
// the full stash. Returns an all-ones mask when a block was extracted.
// Used by Path ORAM's greedy write-back.
func (s *stash) extractEligible(pathLeaf uint32, level, levels int, outID *uint64, outLeaf *uint32, out []uint64) uint64 {
	s.scanNote()
	shift := levels - level
	taken := uint64(0)
	for i := 0; i < s.cap; i++ {
		real := ^oblivious.Eq(s.ids[i], DummyID)
		eligible := real & oblivious.Eq(uint64(s.leaves[i]>>shift), uint64(pathLeaf>>shift))
		m := eligible &^ taken
		*outID = oblivious.Select64(m, s.ids[i], *outID)
		*outLeaf = uint32(oblivious.Select64(m, uint64(s.leaves[i]), uint64(*outLeaf)))
		oblivious.CondCopy64(m, out, s.slotData(i))
		s.ids[i] = oblivious.Select64(m, DummyID, s.ids[i])
		taken |= m
	}
	return taken
}

// findAndRemove scans for block id; if found, copies its payload into out,
// marks the slot free, and returns an all-ones mask. The scan always
// touches every slot.
//
// secemb:secret id return
func (s *stash) findAndRemove(id uint64, out []uint64) uint64 {
	s.scanNote()
	found := uint64(0)
	for i := 0; i < s.cap; i++ {
		m := oblivious.Eq(s.ids[i], id)
		oblivious.CondCopy64(m, out, s.slotData(i))
		s.ids[i] = oblivious.Select64(m, DummyID, s.ids[i])
		found |= m
	}
	return found
}

// readBlock copies block id's payload into out (without removing) and
// returns the found mask.
//
// secemb:secret id return
func (s *stash) readBlock(id uint64, out []uint64) uint64 {
	s.scanNote()
	found := uint64(0)
	for i := 0; i < s.cap; i++ {
		m := oblivious.Eq(s.ids[i], id)
		oblivious.CondCopy64(m, out, s.slotData(i))
		found |= m
	}
	return found
}

// updateBlock overwrites block id's payload and (optionally) its leaf via
// a full scan; returns the found mask.
//
// secemb:secret id leaf payload return
func (s *stash) updateBlock(id uint64, leaf uint32, payload []uint64) uint64 {
	s.scanNote()
	found := uint64(0)
	for i := 0; i < s.cap; i++ {
		m := oblivious.Eq(s.ids[i], id)
		s.leaves[i] = uint32(oblivious.Select64(m, uint64(leaf), uint64(s.leaves[i])))
		oblivious.CondCopy64(m, s.slotData(i), payload)
		found |= m
	}
	return found
}
