// Package profile implements the paper's offline profiling stage and the
// hybrid allocation algorithms (§IV-C, Algorithms 2 and 3, Figures 6/7):
// measure linear-scan and DHE latency across table sizes for each
// execution configuration (batch size × thread count), find the table size
// where the curves cross, and use that threshold at deployment time to
// assign each sparse feature the faster technique.
//
// Crucially for security (§V-B), the allocation depends only on *public*
// quantities — table sizes and the execution configuration — never on user
// inputs.
package profile

import (
	"fmt"
	"math"
	"sort"
	"time"

	"secemb/internal/core"
	"secemb/internal/tensor"
)

// ExecConfig is one execution configuration of the profiling sweep.
type ExecConfig struct {
	Batch   int
	Threads int
}

func (c ExecConfig) String() string { return fmt.Sprintf("batch=%d,threads=%d", c.Batch, c.Threads) }

// DHEKind selects the architecture-sizing policy being profiled.
type DHEKind int

const (
	// Uniform profiles the fixed k=1024 architecture.
	Uniform DHEKind = iota
	// Varied profiles the size-scaled architecture.
	Varied
)

func (k DHEKind) String() string {
	if k == Varied {
		return "Varied"
	}
	return "Uniform"
}

// Thread-scaling exponents. The profiling host for this reproduction is a
// 2-vCPU VM, too few cores to *measure* multi-thread latency at the
// paper's thread counts; instead the single-thread measurement is scaled
// by an analytic model calibrated to the paper's observation (§IV-C1):
// linear scan parallelizes near-linearly across batch queries and gains
// cache reuse of the shared table, while DHE's batched matmul scales
// sublinearly. This makes the scan/DHE threshold *rise* with thread count,
// as in Figure 6.
const (
	scanThreadExponent = 0.95
	dheThreadExponent  = 0.70
)

func threadSpeedup(threads int, exponent float64) float64 {
	if threads <= 1 {
		return 1
	}
	return math.Pow(float64(threads), exponent)
}

// Result is the latency profile of one (dim, config, kind) sweep.
type Result struct {
	Dim    int
	Kind   DHEKind
	Config ExecConfig
	Sizes  []int
	ScanNs []float64 // per-batch latency of linear scan at each size
	DHENs  []float64 // per-batch latency of DHE at each size
	// Threshold is the table size at which DHE becomes faster than the
	// scan (log-interpolated crossing of the two curves).
	Threshold int
}

// DefaultSizes is the profiling grid, log-spaced like Figure 4's x-axis.
func DefaultSizes() []int {
	return []int{100, 316, 1000, 3162, 10_000, 31_623, 100_000}
}

// measureGenerator times reps batches on g and returns per-batch ns.
func measureGenerator(g core.Generator, batch, reps int) float64 {
	ids := make([]uint64, batch)
	for i := range ids {
		ids[i] = uint64(i % g.Rows())
	}
	g.Generate(ids) // warm-up
	start := time.Now()
	for r := 0; r < reps; r++ {
		g.Generate(ids)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// ProfileConfig measures the scan and DHE latency curves for one execution
// configuration and returns the crossing threshold. reps controls the
// timing repetitions per point.
func ProfileConfig(dim int, kind DHEKind, cfg ExecConfig, sizes []int, reps int, seed int64) Result {
	if len(sizes) == 0 {
		sizes = DefaultSizes()
	}
	res := Result{Dim: dim, Kind: kind, Config: cfg, Sizes: sizes}
	for _, n := range sizes {
		tbl := tensor.NewGaussian(n, dim, 0.1, newRng(seed+int64(n)))
		scan := core.MustNew(core.LinearScan, n, dim, core.Options{Table: tbl, Threads: 1})
		scanNs := measureGenerator(scan, cfg.Batch, reps) / threadSpeedup(cfg.Threads, scanThreadExponent)

		var dheGen core.Generator
		if kind == Uniform {
			dheGen = core.MustNew(core.DHE, n, dim, core.Options{DHEArch: core.ArchUniform, Seed: seed, Threads: 1})
		} else {
			dheGen = core.MustNew(core.DHE, n, dim, core.Options{DHEArch: core.ArchVaried, Seed: seed, Threads: 1})
		}
		dheNs := measureGenerator(dheGen, cfg.Batch, reps) / threadSpeedup(cfg.Threads, dheThreadExponent)

		res.ScanNs = append(res.ScanNs, scanNs)
		res.DHENs = append(res.DHENs, dheNs)
	}
	res.Threshold = crossing(res.Sizes, res.ScanNs, res.DHENs)
	return res
}

// crossing returns the table size where the scan latency curve first rises
// above the DHE curve, log-interpolating between grid points. If the scan
// never loses, the largest size is returned; if it never wins, the
// smallest.
func crossing(sizes []int, scanNs, dheNs []float64) int {
	prevIdx := -1
	for i := range sizes {
		if scanNs[i] > dheNs[i] {
			if i == 0 {
				return sizes[0]
			}
			prevIdx = i - 1
			// Interpolate log(size) where the (log-latency) difference
			// crosses zero between grid points i-1 and i.
			d0 := math.Log(scanNs[prevIdx]) - math.Log(dheNs[prevIdx]) // ≤ 0
			d1 := math.Log(scanNs[i]) - math.Log(dheNs[i])             // > 0
			frac := -d0 / (d1 - d0)
			logN := math.Log(float64(sizes[prevIdx])) + frac*(math.Log(float64(sizes[i]))-math.Log(float64(sizes[prevIdx])))
			return int(math.Round(math.Exp(logN)))
		}
	}
	return sizes[len(sizes)-1]
}

// DB is the profiled threshold database consulted at deployment time
// ("the profiling ... is done once per system for each embedding
// dimension", §IV-C1).
type DB struct {
	Dim        int
	Kind       DHEKind
	Thresholds map[ExecConfig]int
}

// BuildDB profiles every execution configuration in the cross product of
// batches × threadCounts.
func BuildDB(dim int, kind DHEKind, batches, threadCounts []int, sizes []int, reps int, seed int64) *DB {
	db := &DB{Dim: dim, Kind: kind, Thresholds: map[ExecConfig]int{}}
	for _, b := range batches {
		for _, th := range threadCounts {
			cfg := ExecConfig{Batch: b, Threads: th}
			db.Thresholds[cfg] = ProfileConfig(dim, kind, cfg, sizes, reps, seed).Threshold
		}
	}
	return db
}

// Threshold returns the profiled threshold for cfg, falling back to the
// nearest profiled configuration (log-distance in batch, abs in threads).
func (db *DB) Threshold(cfg ExecConfig) int {
	if t, ok := db.Thresholds[cfg]; ok {
		return t
	}
	best, bestDist := 0, math.Inf(1)
	for c, t := range db.Thresholds {
		d := math.Abs(math.Log(float64(c.Batch))-math.Log(float64(cfg.Batch))) +
			math.Abs(float64(c.Threads-cfg.Threads))*0.1
		if d < bestDist {
			bestDist, best = d, t
		}
	}
	return best
}

// Allocate is Algorithm 3 (the online decision): tables at or below the
// threshold use linear scan; larger ones use DHE. The decision is a pure
// function of public table sizes and the execution configuration.
func (db *DB) Allocate(tableSizes []int, cfg ExecConfig) []core.Technique {
	thr := db.Threshold(cfg)
	out := make([]core.Technique, len(tableSizes))
	for i, n := range tableSizes {
		if n <= thr {
			out[i] = core.LinearScan
		} else {
			out[i] = core.DHE
		}
	}
	return out
}

// HybridRange reports, over a set of profiled configurations, the
// min and max thresholds — the red band of Figure 7: tables inside this
// range switch technique depending on the execution configuration, tables
// below always scan, tables above always use DHE.
func (db *DB) HybridRange() (lo, hi int) {
	first := true
	for _, t := range db.Thresholds {
		if first {
			lo, hi = t, t
			first = false
			continue
		}
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi
}

// SortedConfigs lists the profiled configurations deterministically.
func (db *DB) SortedConfigs() []ExecConfig {
	out := make([]ExecConfig, 0, len(db.Thresholds))
	for c := range db.Thresholds {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Batch != out[j].Batch {
			return out[i].Batch < out[j].Batch
		}
		return out[i].Threads < out[j].Threads
	})
	return out
}
