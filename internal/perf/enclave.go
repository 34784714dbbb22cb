package perf

import "secemb/internal/oram"

// The ORAM controller under the three SGX deployment configurations the
// paper compares in Figure 10:
//
//   - ZT-Original: the ZeroTrace layout for client SGX — the ORAM tree
//     lives in *untrusted* memory, so every path fetch/write-back crosses
//     the enclave boundary (ocalls + copy + re-encryption), and the cmov
//     primitive is an out-of-line assembly call. Position-map recursion is
//     unavailable (the paper reports it broken before their fixes).
//   - ZT-Gramine: Scalable SGX via Gramine — the whole tree fits in the
//     64 GB EPC, eliminating boundary crossings; cmov still a call.
//   - ZT-Gramine-Opt: additionally inlines cmov and enables recursion.
//
// The paper measures these on Ice Lake hardware; here the comparison is a
// price table over the controller work counters (internal/oram.Stats) of
// controllers that are actually executed. The prices are calibrated so the
// *relative* improvements match the paper's reported reductions (≈20%/60%
// from EPC residency for Path/Circuit, ≈29%/54% more from
// inlining+recursion); absolute numbers are illustrative.

// Variant identifies a deployment configuration.
type Variant int

const (
	// ZTOriginal is ZeroTrace's client-SGX layout (tree outside EPC).
	ZTOriginal Variant = iota
	// ZTGramine keeps the entire ORAM inside the Scalable-SGX EPC.
	ZTGramine
	// ZTGramineOpt additionally inlines cmov and enables posmap recursion.
	ZTGramineOpt
)

// EnclavePrices converts controller work counters into nanoseconds.
type EnclavePrices struct {
	// BucketAccessNs is the in-enclave cost of touching one tree bucket
	// (cache/DRAM traffic incl. SGX memory encryption).
	BucketAccessNs float64
	// WordMoveNs is the cost per payload word copied between tree and
	// stash or registers.
	WordMoveNs float64
	// StashSlotNs is the cost per stash slot visited by an oblivious scan.
	StashSlotNs float64
	// PosmapEntryNs is the cost per flat-posmap entry scanned.
	PosmapEntryNs float64
	// CmovOverheadNs is the extra cost per conditional-select when cmov is
	// an out-of-line call (zero when inlined).
	CmovOverheadNs float64
	// OcallNs is the enclave boundary-crossing cost paid per bucket
	// transferred when the tree lives outside the EPC (zero otherwise).
	OcallNs float64
	// CrossCopyWordNs is the additional per-word cost of moving payload
	// across the boundary with re-encryption (zero when inside EPC).
	CrossCopyWordNs float64
}

// variants is the calibrated table, indexed by Variant: Figure 10's
// column names and what each deployment pays on top of the in-enclave
// work every variant shares.
var variants = [...]struct {
	name                                     string
	cmovOverheadNs, ocallNs, crossCopyWordNs float64
}{
	ZTOriginal:   {"ZT-Original", 6, 700, 1.5},
	ZTGramine:    {"ZT-Gramine", 6, 0, 0},
	ZTGramineOpt: {"ZT-Gramine-Opt", 0, 0, 0}, // inlined cmov, everything EPC-resident
}

// String names the variant as in Figure 10.
func (v Variant) String() string {
	if v < 0 || int(v) >= len(variants) {
		return "unknown"
	}
	return variants[v].name
}

// Prices returns the variant's calibrated prices.
func (v Variant) Prices() EnclavePrices {
	d := variants[v]
	return EnclavePrices{
		BucketAccessNs:  120,
		WordMoveNs:      1.0,
		StashSlotNs:     2.0,
		PosmapEntryNs:   0.8,
		CmovOverheadNs:  d.cmovOverheadNs,
		OcallNs:         d.ocallNs,
		CrossCopyWordNs: d.crossCopyWordNs,
	}
}

// RecursionEnabled reports whether the variant supports recursive position
// maps (only the optimized build does, per §V-A1).
func (v Variant) RecursionEnabled() bool { return v == ZTGramineOpt }

// EstimateNs converts a Stats *delta* (the counters accumulated by some
// window of accesses) into an estimated latency under the prices.
func (m EnclavePrices) EstimateNs(s oram.Stats) float64 {
	buckets := float64(s.BucketsRead + s.BucketsWritten)
	ns := buckets * m.BucketAccessNs
	ns += float64(s.WordsMoved) * m.WordMoveNs
	ns += float64(s.StashScans) * m.StashSlotNs
	ns += float64(s.PosmapScans) * m.PosmapEntryNs
	ns += float64(s.CmovOps) * m.CmovOverheadNs
	ns += buckets * m.OcallNs
	ns += float64(s.WordsMoved) * m.CrossCopyWordNs
	return ns
}

// Delta subtracts two cumulative counters, giving the work done between
// two snapshots.
func Delta(after, before oram.Stats) oram.Stats {
	return oram.Stats{
		Accesses:       after.Accesses - before.Accesses,
		BucketsRead:    after.BucketsRead - before.BucketsRead,
		BucketsWritten: after.BucketsWritten - before.BucketsWritten,
		WordsMoved:     after.WordsMoved - before.WordsMoved,
		StashScans:     after.StashScans - before.StashScans,
		PosmapScans:    after.PosmapScans - before.PosmapScans,
		Evictions:      after.Evictions - before.Evictions,
		CmovOps:        after.CmovOps - before.CmovOps,
		MaxStash:       after.MaxStash,
	}
}
