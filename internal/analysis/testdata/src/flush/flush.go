// Fixture: flush-policy findings — a miniature micro-batching coalescer in
// the shape of internal/serving's gather loop. The serving invariant
// (§V-B) is that flush decisions read only public quantities: queue
// counts, clocks, configured caps. A flush policy that inspects the
// secret ids it is fusing changes batch composition per secret — exactly
// the scheduler regression obliviouslint must flag.
package flush

// GatherByCount is the sanctioned policy: ids are appended (copied, never
// inspected) and the flush trigger reads only the batch length against a
// public cap. No findings.
//
// secemb:secret ids return
func GatherByCount(ids []uint64, maxBatch int) [][]uint64 {
	var batches [][]uint64
	var cur []uint64
	for _, id := range ids {
		cur = append(cur, id)
		if len(cur) == maxBatch { // public: count vs configured cap
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// GatherFlushOnOdd is the leak: the flush decision branches on the id
// being admitted, so how many fused executions (and traces) a batch
// produces depends on the secret.
//
// secemb:secret ids return
func GatherFlushOnOdd(ids []uint64, maxBatch int) [][]uint64 {
	var batches [][]uint64
	var cur []uint64
	for _, id := range ids {
		cur = append(cur, id)
		if id%2 == 1 { // want `obliviouslint/branch: branch condition depends on secret-tainted value`
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// GatherIDThreshold launders the secret into the flush cap: the count
// comparison itself is then id-dependent.
//
// secemb:secret ids return
func GatherIDThreshold(ids []uint64) [][]uint64 {
	limit := int(ids[0]%4) + 1
	var batches [][]uint64
	var cur []uint64
	for _, id := range ids {
		cur = append(cur, id)
		if len(cur) >= limit { // want `obliviouslint/branch: branch condition depends on secret-tainted value`
			batches = append(batches, cur)
			cur = nil
		}
	}
	return batches
}

// SkipHotID drops requests for one specific id out of the batch — an
// early continue guarded by the secret.
//
// secemb:secret ids return
func SkipHotID(ids []uint64) []uint64 {
	var batch []uint64
	for _, id := range ids {
		if id == 7 { // want `obliviouslint/branch: branch condition depends on secret-tainted value \(guards a break/continue/goto\)`
			continue
		}
		batch = append(batch, id)
	}
	return batch
}

// gapSmoothing and denseGaps mirror internal/serving: the hold gate
// compares a smoothed inter-arrival gap with the configured hold.
const (
	gapSmoothing = 64
	denseGaps    = 2
)

// HoldByArrivalGap is the sanctioned hold gate: whether a partial batch is
// held for co-batching is decided from admission timestamps (nanoseconds
// on the arrival clock), their count, and the configured maxWait — ids are
// appended and never read. One held entry per id; no findings.
//
// secemb:secret ids return
func HoldByArrivalGap(ids []uint64, arrivedNs []int64, maxWaitNs int64) (batch []uint64, held []bool) {
	var last, gap int64
	for i, id := range ids {
		batch = append(batch, id)
		if i > 0 { // public: arrival count
			gap += (arrivedNs[i] - last - gap) / gapSmoothing
		}
		last = arrivedNs[i]
		held = append(held, gap/denseGaps < maxWaitNs) // public: clock vs configured hold
	}
	return batch, held
}

// HoldByIDGap is the leak: the gap estimate is fed from the ids instead of
// the arrival clock, so whether the worker parks — and with it batch
// composition and flush timing — depends on the secrets being fused.
//
// secemb:secret ids return
func HoldByIDGap(ids []uint64, maxWaitNs int64) int {
	var last, gap int64
	holds := 0
	for _, id := range ids {
		gap += (int64(id) - last - gap) / gapSmoothing
		last = int64(id)
		if gap/denseGaps < maxWaitNs { // want `obliviouslint/branch: branch condition depends on secret-tainted value`
			holds++
		}
	}
	return holds
}
