package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets covers 256 ns to ~17 s in powers of two — wide
// enough for a single oblivious blend and a full ORAM-protected DLRM batch
// alike. Values are bucket *upper bounds* in nanoseconds; observations
// beyond the last bound land in an implicit overflow bucket.
func DefaultLatencyBuckets() []int64 {
	bounds := make([]int64, 27)
	b := int64(256)
	for i := range bounds {
		bounds[i] = b
		b <<= 1
	}
	return bounds
}

// Histogram is a fixed-bucket histogram with atomic counters, built for
// latency distributions: Observe is one atomic add per call; quantiles are
// estimated from the bucket counts with linear interpolation (exact count,
// min and max are tracked separately, so Max and Count are always exact and
// no quantile leaves the observed range).
type Histogram struct {
	bounds []int64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 until the first observation
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (nil → DefaultLatencyBuckets).
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	cp := make([]int64, len(bounds))
	copy(cp, bounds)
	h := &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketOf returns the index of the first bound ≥ v (binary search), or
// len(bounds) for the overflow bucket.
func (h *Histogram) bucketOf(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value. Nil-safe. The extremes are written before
// the counts, so a Quantile that sees this observation counted sees them.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds. Nil-safe.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations. Nil-safe (0).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values. Nil-safe (0).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (exact). Nil-safe (0).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts,
// interpolating linearly inside the containing bucket, clamped to the
// exact observed [min, max]. Returns 0 with no observations. Nil-safe.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation (1-based), then walk the cumulative
	// bucket counts.
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if cum+c >= rank {
			lo := h.min.Load()
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := h.max.Load()
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if c == 0 {
				return hi
			}
			frac := float64(rank-cum) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			if m := h.max.Load(); v > m {
				v = m
			}
			return v
		}
		cum += c
	}
	return h.max.Load()
}

// Buckets returns the bucket upper bounds and their counts (the final
// entry is the overflow bucket, reported with bound -1). Nil-safe.
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]int64, len(h.bounds)+1)
	copy(bounds, h.bounds)
	bounds[len(h.bounds)] = -1
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}
