// Package perf is the analytic platform cost model that stands in for the
// paper's evaluation machine (Table III: Ice Lake Xeon 6348, 28 cores,
// AVX-512, 42 MB LLC, 8-channel DDR4-3200, Scalable SGX).
//
// Why it exists: the paper's headline crossovers (Figures 2, 4, 5 and the
// latency tables) are determined by the *ratio* between vectorized
// multi-core compute throughput and (oblivious, serialized) memory-system
// throughput. This reproduction's host is a single slow core, where that
// ratio is off by 1–2 orders of magnitude, so pure wall-clock would move
// every crossover (the asymptotic *shapes* still hold and are benchmarked
// directly). This package counts the operations each technique performs —
// FLOPs, streamed words, ORAM controller word-ops, bucket fetches,
// position-map scans — and prices them with constants calibrated to the
// paper's hardware, reproducing the who-wins-where structure. The
// calibration checkpoints are asserted in the tests.
//
// It is the only place the paper machine is priced. A technique's batch
// demand is stated once, as a Cost; Platform.Ns evaluates it alone on the
// socket (Figures 2, 4–7, 11, 12, 15, Tables VII, VIII) and System
// evaluates the same Cost next to co-located replicas (colo.go: Figures 8,
// 9, 13). The tree-ORAM formulas read internal/oram's defaults and
// geometry rather than copies of them, and enclave.go prices the executed
// controllers' work counters per ZeroTrace deployment variant (Figure 10).
package perf

import (
	"math"

	"secemb/internal/dhe"
	"secemb/internal/oram"
)

// Platform prices operation counts in nanoseconds.
type Platform struct {
	Threads int

	FlopNs       float64 // per MAC-ish FLOP (dense matmul)
	StreamWordNs float64 // per sequentially streamed float32 word
	OramWordNs   float64 // per oblivious controller word op (cmov copy)
	BucketNs     float64 // per ORAM bucket touch (controller bookkeeping)
	BucketByteNs float64 // per byte of bucket traffic (copy + re-encryption)
	QueryNs      float64 // fixed per-query overhead
	ScanReuse    float64 // extra multi-thread cache-reuse factor for scans
}

// Single-thread Ice Lake constants.
const (
	flop1      = 1.0 / 15.0 // 15 GFLOP/s effective fp32 GEMM per core (AVX-512)
	stream1    = 1.0 / 3.0  // 12 GB/s per-core streaming = 3 words/ns
	oram1      = 2.0        // oblivious word op: load+select+store, unvectorized
	bucket1    = 250.0      // controller bookkeeping per bucket
	bucketByte = 0.35       // copy + SGX re-encryption per byte of bucket traffic
	query1     = 60.0
)

// IceLake returns the platform model at the given thread count. Compute
// scales near-linearly with threads (independent GEMM tiles); streaming
// bandwidth scales sublinearly (shared memory controllers); the oblivious
// ORAM controller does not parallelize at all ("processing each item in
// the input batch is sequential", §V-A1).
func IceLake(threads int) Platform {
	if threads < 1 {
		threads = 1
	}
	t := float64(threads)
	return Platform{
		Threads:      threads,
		FlopNs:       flop1 / math.Pow(t, 0.90),
		StreamWordNs: stream1 / math.Pow(t, 0.60),
		OramWordNs:   oram1,
		BucketNs:     bucket1,
		BucketByteNs: bucketByte,
		QueryNs:      query1,
		ScanReuse:    math.Pow(t, 0.35),
	}
}

// LookupNs prices the non-secure direct lookup: one row gather per query.
func (p Platform) LookupNs(dim, batch int) float64 {
	return float64(batch) * (p.QueryNs + float64(dim)*p.StreamWordNs*4)
}

// Cost is one replica's resource demand for one batch, split the way the
// socket shares it: ComputeNs runs on the replica's own core(s), MemWords
// is float32 words of DRAM traffic that contend for the shared channels.
type Cost struct {
	ComputeNs float64
	MemWords  float64
}

// Plus sums two demands (a model is the sum of its features and MLPs).
func (c Cost) Plus(d Cost) Cost {
	return Cost{ComputeNs: c.ComputeNs + d.ComputeNs, MemWords: c.MemWords + d.MemWords}
}

// Ns is the latency of a demand running alone: compute plus its memory
// traffic streamed at the platform's uncontended rate.
func (p Platform) Ns(c Cost) float64 {
	return c.ComputeNs + c.MemWords*p.StreamWordNs
}

// ScanCost is the oblivious linear scan's demand: every query streams the
// whole table with a masked blend per row (1.5 words of traffic per table
// word). ScanReuse captures the paper's observation that concurrent scan
// threads share the table in cache (§IV-C1: "linear scan improves its
// cache reuse of the table across several queries in multiple threads, so
// the thresholds increase"), so the scan scales better with threads than
// DHE's matmuls.
func (p Platform) ScanCost(rows, dim, batch int) Cost {
	words := float64(batch) * float64(rows) * float64(dim)
	return Cost{
		ComputeNs: float64(batch) * p.QueryNs,
		MemWords:  words * 1.5 / p.ScanReuse,
	}
}

// DHECost is a DHE batch's demand: the decoder weights are touched once
// per batch (on the Xeon's 42 MB LLC roughly half the traffic of even the
// biggest DHE decoder is cache-resident, hence the 0.5 residency factor)
// plus the dense-matmul FLOPs for every query. The once-per-batch weight
// term is what gives DHE its batch amortization (Figures 5, 12).
func (p Platform) DHECost(cfg dhe.Config, batch int) Cost {
	const llcResidency = 0.5
	w, _ := cfg.DecoderParams()
	weights := float64(w)
	return Cost{
		ComputeNs: float64(batch) * (2*weights*p.FlopNs + p.QueryNs),
		MemWords:  weights * llcResidency,
	}
}

// ScanNs prices a linear-scan batch running alone.
func (p Platform) ScanNs(rows, dim, batch int) float64 {
	return p.Ns(p.ScanCost(rows, dim, batch))
}

// DHENs prices a DHE batch running alone.
func (p Platform) DHENs(cfg dhe.Config, batch int) float64 {
	return p.Ns(p.DHECost(cfg, batch))
}

// Threshold is Algorithm 3's profiled switching point under the model: the
// table size in [10, 1e8] at which the DHE that cfg sizes for it becomes
// cheaper than the linear scan. Both prices may move with the size (Varied
// DHE), so the crossing is bracketed on a 5/4 log grid. exact then bisects
// the bracket to the smallest winning size (the Uniform profile of Figures
// 6 and 7); without it the bracket's midpoint is returned, the resolution
// the Varied profile of Figures 11 and 13 was recorded at.
func (p Platform) Threshold(dim, batch int, cfg func(rows int) dhe.Config, exact bool) int {
	const minRows, maxRows = 10, 100_000_000
	dheWins := func(n int) bool { return p.DHENs(cfg(n), batch) < p.ScanNs(n, dim, batch) }
	lo := minRows
	for hi := minRows; hi <= maxRows; lo, hi = hi, hi*5/4 {
		if !dheWins(hi) {
			continue
		}
		if !exact {
			return (lo + hi) / 2
		}
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; dheWins(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	return maxRows
}

// --- tree ORAM cost formulas (mirroring internal/oram's controllers,
// sized by its defaults: Z, stash capacities, recursion cutoffs, Chi) ---

// posmapEntryNsMul discounts flat posmap scans: tight uint32 loops.
const posmapEntryNsMul = 0.5

// posmapNs prices the position-map lookup for an n-block ORAM, recursing
// per the scheme's cutoff.
func (p Platform) posmapNs(n, cutoff int, inner func(n, words int) float64) float64 {
	if n <= cutoff {
		return float64(n) * p.OramWordNs * posmapEntryNsMul
	}
	blocks := (n + oram.Chi - 1) / oram.Chi
	return inner(blocks, oram.Chi)
}

// PathAccessNs prices one Path ORAM access on an n-block tree with
// `words`-word blocks: fetch the whole path into the stash (a full
// oblivious stash scan per slot), serve, and write back greedily (a full
// stash scan per slot).
func (p Platform) PathAccessNs(n, words int) float64 {
	L := oram.Levels(n, oram.DefaultZ)
	slots := float64((L + 1) * oram.DefaultZ)
	buckets := 2 * float64(L+1)
	stashScanWords := (slots*2 + 2) * oram.DefaultPathStash * float64(words) // insert + extract + serve
	pathWords := 2 * slots * float64(words)
	bucketBytes := 2 * slots * float64(4*words+12) // read + write-back traversal
	ns := buckets*p.BucketNs + bucketBytes*p.BucketByteNs + (stashScanWords+pathWords)*p.OramWordNs
	ns += p.posmapNs(n, oram.DefaultPathRecursionCutoff, p.PathAccessNs)
	return ns
}

// CircuitAccessNs prices one Circuit ORAM access: the read phase lifts
// only the target block (one masked copy per path slot), stash scans are
// tiny, and two metadata-guided evictions move O(L) blocks.
func (p Platform) CircuitAccessNs(n, words int) float64 {
	L := oram.Levels(n, oram.DefaultZ)
	slots := float64((L + 1) * oram.DefaultZ)
	buckets := 2 * float64(L+1)
	readWords := slots * float64(words)
	stashWords := 2 * oram.DefaultCircuitStash * float64(words)
	bucketBytes := float64(4*words+12) * slots
	evictions := 2 * (2*float64(L+1)*p.BucketNs + // read+write each bucket
		2*bucketBytes*p.BucketByteNs + // full-path copy + re-encryption
		(slots+oram.DefaultCircuitStash)*p.OramWordNs*4 + // metadata scans
		3*float64(words)*p.OramWordNs) // block movement
	ns := buckets*p.BucketNs + 2*bucketBytes*p.BucketByteNs +
		(readWords+stashWords)*p.OramWordNs + evictions
	ns += p.posmapNs(n, oram.DefaultCircRecursionCutoff, p.CircuitAccessNs)
	return ns
}

// PathNs prices a batch (sequential accesses).
func (p Platform) PathNs(rows, dim, batch int) float64 {
	return float64(batch) * (p.PathAccessNs(rows, dim) + p.QueryNs)
}

// CircuitNs prices a batch (sequential accesses).
func (p Platform) CircuitNs(rows, dim, batch int) float64 {
	return float64(batch) * (p.CircuitAccessNs(rows, dim) + p.QueryNs)
}
