package planner

import (
	"math"

	"secemb/internal/core"
)

// The crossover cost model: predict per-id service cost for each candidate
// technique at the table's current operating point (its public shape and
// the aggregate batch size the serving layer is currently producing), then
// pick the cheapest. Until a technique has been observed, an analytic
// prior stands in; once the swap point has timed real batches, the
// observed EWMA (rescaled to the target batch size) overrides the prior.
// This is the paper's §IV-C offline profiling turned into an online refit:
// the measured curves replace the model exactly where measurements exist.
//
// Everything the model reads is public: rows, dim, batch-size aggregates,
// latency EWMAs. Ids never reach it (see the obliviouslint `plan` fixture
// for the counterexample this invariant forbids).

// Analytic prior constants, calibrated to this repository's measured
// orderings (the core.* probes of bench/, internal/profile): the absolute
// numbers only matter until the first observation window replaces them,
// but their *orderings* reproduce the paper's regimes — scan wins small
// tables, ORAM wins big-table/small-batch, DHE wins big-table/large-batch.
const (
	// scanPerElemNs: one masked compare+blend per table element per id.
	scanPerElemNs = 0.5
	// oramPerElemLevelNs: per id, per embedding element, per tree level —
	// the circuit ORAM read+evict constant.
	oramPerElemLevelNs = 100
	// dheFixedNs / dhePerIDNs split a DHE batch into its batch-independent
	// encoder/setup share and the per-id decode share; the fixed share is
	// what makes DHE's per-id cost fall with batch size (Fig. 5) and puts
	// the ORAM→DHE crossover near batch ~100 on large tables.
	dheFixedNs   = 8e6
	dhePerIDNs   = 60e3
	dheFixedFrac = 0.3 // fixed share assumed when rescaling an observed EWMA
)

// analyticPerID is the prior: predicted ns per id with no observations.
func analyticPerID(tech core.Technique, rows, dim int, batch float64) float64 {
	if batch < 1 {
		batch = 1
	}
	switch tech {
	case core.LinearScan, core.LinearScanBatched, core.Lookup:
		return scanPerElemNs * float64(rows) * float64(dim)
	case core.PathORAM, core.CircuitORAM:
		levels := math.Log2(float64(rows)) + 1
		return oramPerElemLevelNs * float64(dim) * levels
	case core.DHE:
		return dheFixedNs/batch + dhePerIDNs
	}
	return math.Inf(1)
}

// predictPerID predicts ns per id at the target batch size, preferring the
// observed EWMA (rescaled from its own operating point to the target)
// over the analytic prior.
func predictPerID(tech core.Technique, rows, dim int, batch float64, sig Signal) float64 {
	if !sig.Observed() {
		return analyticPerID(tech, rows, dim, batch)
	}
	if batch < 1 {
		batch = 1
	}
	obsBatch := sig.EWMABatch
	if obsBatch < 1 {
		obsBatch = 1
	}
	switch tech {
	case core.DHE:
		// Split the observed per-batch cost into a batch-independent share
		// and a per-id slope, then re-evaluate at the target batch.
		fixed := dheFixedFrac * sig.EWMANs
		slope := (1 - dheFixedFrac) * sig.EWMANs / obsBatch
		return (fixed + slope*batch) / batch
	default:
		// Scans and ORAMs do per-id work: per-id cost is flat in batch
		// size, so the observed operating point transfers directly.
		return sig.EWMANs / obsBatch
	}
}
