package tensor

import (
	"runtime"
	"sync/atomic"
	"time"

	"secemb/internal/obs"
)

// Startup autotuner. The float and quantized kernels have three knobs
// whose best values are machine-dependent — worker count, dispatch
// granularity, and the batch size below which the pool is pure overhead —
// and a value hand-picked on one box (the old blockSize = 64 constant) is
// wrong on the next. Autotune measures candidate configs on this machine
// with the kernel and shapes that serve — the int8 DHE decoder at the
// 1M-row varied architecture — for ~100ms at startup and installs the
// winner process-wide.
//
// Tuning is side-channel-neutral by construction: the probe inputs are
// synthetic, the candidate space and probe shapes are compile-time
// constants, and the chosen config depends only on machine timing of
// public shapes — no secret (no feature id) exists at tuning time, and
// the installed config changes how work is partitioned, never which
// values are computed. See DESIGN §13.

// TuneConfig is the installed kernel dispatch configuration.
type TuneConfig struct {
	// Workers caps the worker count used by the parallel kernels
	// (further clamped by GOMAXPROCS and the row count). <=0: GOMAXPROCS.
	Workers int
	// BlockRows is the minimum number of rows per dispatched chunk;
	// splits finer than this cost more in handoff than they recover in
	// load balance.
	BlockRows int
	// InlineRows is the batch size at or below which kernels skip the
	// worker pool entirely and run on the caller.
	InlineRows int
	// Autotuned records whether this config was measured (Autotune) or is
	// the static default.
	Autotuned bool
	// ProbeNs is the best measured probe-kernel time for the winning
	// config (0 for the static default).
	ProbeNs int64
}

// defaultTune mirrors the pre-autotuner behavior: the historical 64-row
// block granularity, all CPUs, pool from 2 rows up.
func defaultTune() TuneConfig {
	return TuneConfig{Workers: 0, BlockRows: 64, InlineRows: 1}
}

var tunePtr atomic.Pointer[TuneConfig]

func currentTune() *TuneConfig {
	if t := tunePtr.Load(); t != nil {
		return t
	}
	return &staticTune
}

var staticTune = defaultTune()

// CurrentTune returns the installed kernel dispatch config.
func CurrentTune() TuneConfig { return *currentTune() }

// SetTune installs a kernel dispatch config process-wide (Autotune's
// winner, or a config a test pins). Zero-valued fields are replaced by the
// static defaults.
func SetTune(c TuneConfig) {
	d := defaultTune()
	if c.BlockRows <= 0 {
		c.BlockRows = d.BlockRows
	}
	if c.InlineRows <= 0 {
		c.InlineRows = d.InlineRows
	}
	tunePtr.Store(&c)
	publishTune()
}

// tuneBudget bounds one Autotune call; candidates that would overrun it
// are skipped in favor of the best config measured so far.
const tuneBudget = 100 * time.Millisecond

// Autotune benchmarks candidate worker counts and block granularities on
// the serving-dominant decoder, picks the inline-fallback threshold by
// racing the pool against single-threaded dispatch on small batches,
// installs the winner via SetTune, and returns it. Call once at startup
// (cmd/secembd does) — repeated calls re-probe and overwrite.
func Autotune() TuneConfig {
	deadline := time.Now().Add(tuneBudget)
	procs := runtime.GOMAXPROCS(0)

	// Probe: a 64-id batch through the quantized decoder that serves DHE
	// by default (MatMulQuantInto, the AVX2 kernel where there is one).
	// Its pool hand-offs are part of the price: a kernel fast enough to
	// finish before a worker wakes should run on the caller.
	run := quantProbe(64)

	workerCands := dedupInts([]int{1, 2, procs / 2, procs}, procs)
	blockCands := []int{8, 16, 32, 64, 128}

	best := defaultTune()
	best.Autotuned = true
	bestNs := int64(-1)
	for _, w := range workerCands {
		for _, blk := range blockCands {
			if w == 1 && blk != blockCands[0] {
				continue // block granularity is meaningless single-threaded
			}
			cand := TuneConfig{Workers: w, BlockRows: blk, InlineRows: 1, Autotuned: true}
			ns := probeKernel(run, cand, deadline)
			if ns >= 0 && (bestNs < 0 || ns < bestNs) {
				bestNs, best = ns, cand
			}
		}
	}
	best.ProbeNs = bestNs

	// Inline threshold: smallest-batch shapes where pool handoff can cost
	// more than it buys. Walk batch sizes upward; the threshold is the
	// largest batch where single-threaded still wins.
	if best.Workers != 1 && procs > 1 {
		single := TuneConfig{Workers: 1, BlockRows: best.BlockRows, InlineRows: 1}
		pooled := best
		for _, rows := range []int{1, 2, 4, 8} {
			small := quantProbe(rows)
			sNs := probeKernel(small, single, deadline)
			pNs := probeKernel(small, pooled, deadline)
			if sNs < 0 || pNs < 0 || pNs < sNs {
				break
			}
			best.InlineRows = rows
		}
	} else {
		// One effective worker: the pool can never win; inline everything.
		best.InlineRows = 1 << 30
	}

	SetTune(best)
	return best
}

// quantProbe returns a pass of rows synthetic activations through the
// three quantized layers of the 1M-row varied DHE decoder (K = 128,
// hidden 64 and 32, dim 64): its MatMulQuantInto calls, with the worker
// count left to the installed config.
func quantProbe(rows int) func() {
	dims := [...]int{128, 64, 32, 64}
	var layers []func()
	for l := 0; l+1 < len(dims); l++ {
		x, w := New(rows, dims[l]), New(dims[l], dims[l+1])
		for i := range x.Data {
			x.Data[i] = float32(i%7) - 3
		}
		for i := range w.Data {
			w.Data[i] = float32(i%5) - 2
		}
		qa, qw, dst := &QuantActs{}, QuantizeMat(w), New(rows, dims[l+1])
		qa.Quantize(x)
		layers = append(layers, func() { MatMulQuantInto(dst, qa, qw, nil, 0) })
	}
	return func() {
		for _, layer := range layers {
			layer()
		}
	}
}

// probeKernel times run under cand, best of a few reps; -1 when the
// deadline has passed.
func probeKernel(run func(), cand TuneConfig, deadline time.Time) int64 {
	if time.Now().After(deadline) {
		return -1
	}
	restore := tunePtr.Load()
	tunePtr.Store(&cand)
	defer tunePtr.Store(restore)
	best := int64(-1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		// The candidate config under test drives the worker count and
		// granularity, exactly as it would in production.
		run()
		ns := time.Since(start).Nanoseconds()
		if best < 0 || ns < best {
			best = ns
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return best
}

func dedupInts(in []int, most int) []int {
	var out []int
	for _, v := range in {
		if v < 1 || v > most {
			continue
		}
		seen := false
		for _, o := range out {
			if o == v {
				seen = true
			}
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}

// tuneObsPtr holds the registry tune gauges are published to; SetObserver
// wires it and every SetTune refresh re-publishes.
var tuneObsPtr atomic.Pointer[obs.Registry]

// publishTune mirrors the installed config into the wired obs registry:
//
//	tensor_tune_workers      worker-count cap (0 = GOMAXPROCS)
//	tensor_tune_block_rows   dispatch granularity in rows
//	tensor_tune_inline_rows  single-threaded batch-size threshold
//	tensor_tune_autotuned    1 when measured by Autotune, 0 for defaults
//	tensor_tune_probe_ns     winning config's probe-kernel time
func publishTune() {
	reg := tuneObsPtr.Load()
	if reg == nil {
		return
	}
	c := CurrentTune()
	reg.Gauge("tensor_tune_workers").Set(int64(c.Workers))
	reg.Gauge("tensor_tune_block_rows").Set(int64(c.BlockRows))
	reg.Gauge("tensor_tune_inline_rows").Set(int64(c.InlineRows))
	var auto int64
	if c.Autotuned {
		auto = 1
	}
	reg.Gauge("tensor_tune_autotuned").Set(auto)
	reg.Gauge("tensor_tune_probe_ns").Set(c.ProbeNs)
}
