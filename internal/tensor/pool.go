package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"secemb/internal/obs"
)

// The kernels in this package used to spawn a fresh set of goroutines per
// call. At serving rates (thousands of matmuls per second through the DHE
// decoders) that is pure scheduler churn: every MatMul paid goroutine
// creation, stack setup and exit for workers that live microseconds. This
// file replaces that with one persistent, lazily-started worker pool fed
// contiguous row-range tasks over a channel. Workers live for the process
// lifetime; a kernel invocation only pays one channel send per chunk and
// one WaitGroup rendezvous.
//
// The pool is deadlock-free by construction: when the task queue is full
// (or the pool is saturated, e.g. a kernel invoked from inside another
// parallel section) the chunk runs inline on the calling goroutine instead
// of blocking. The caller also always executes the final chunk itself, so
// a parallel call makes progress even if no pool worker is ever scheduled.

// task is one contiguous row-range of a parallel kernel.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolTasks chan task
	poolSize  int
)

// poolObs bundles the wired observability handles so the hot path loads
// them with a single atomic pointer read. All obs types are nil-safe, but
// the struct pointer itself is checked to skip the extra atomic ops when
// observability is off.
type poolObs struct {
	inflight   *obs.Gauge
	dispatched *obs.Counter
	inline     *obs.Counter
}

var poolObsPtr atomic.Pointer[poolObs]

// SetObserver registers the worker-pool metrics in reg:
//
//	tensor_pool_workers        resident pool worker goroutines (gauge)
//	tensor_pool_inflight       chunks queued or executing in the pool (gauge)
//	tensor_pool_chunks_total   chunks executed by pool workers
//	tensor_pool_inline_total   chunks executed inline on the caller
//
// A nil registry detaches observability; chunks run while none is wired
// are not counted. The inline counter is the pool's
// saturation signal: a high inline:chunks ratio means callers outpace the
// workers and extra capacity would help.
func SetObserver(reg *obs.Registry) {
	if reg == nil {
		poolObsPtr.Store(nil)
		tuneObsPtr.Store(nil)
		return
	}
	o := &poolObs{
		inflight:   reg.Gauge("tensor_pool_inflight"),
		dispatched: reg.Counter("tensor_pool_chunks_total"),
		inline:     reg.Counter("tensor_pool_inline_total"),
	}
	reg.Gauge("tensor_pool_workers").Set(int64(PoolWorkers()))
	poolObsPtr.Store(o)
	// Mirror the kernel dispatch config (tensor_tune_*) into the same
	// registry, now and on every future SetTune/Autotune.
	tuneObsPtr.Store(reg)
	publishTune()
}

// PoolWorkers returns the worker pool's size, starting the pool if no
// kernel has yet: poolSize is read only after poolOnce, so a caller racing
// a kernel's first dispatch sees it written.
func PoolWorkers() int {
	poolOnce.Do(startPool)
	return poolSize
}

func poolSizeFor() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c > n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

func startPool() {
	poolSize = poolSizeFor()
	// A generous buffer lets a burst of kernels enqueue all chunks without
	// stalling; overflow falls back to inline execution, never blocking.
	poolTasks = make(chan task, 16*poolSize)
	for i := 0; i < poolSize; i++ {
		go poolWorker()
	}
}

func poolWorker() {
	for t := range poolTasks {
		t.fn(t.lo, t.hi)
		if o := poolObsPtr.Load(); o != nil {
			o.inflight.Add(-1)
		}
		t.wg.Done()
	}
}

// parallelRows splits [0,rows) into contiguous chunks and runs fn on each,
// dispatching all but the last chunk to the persistent pool. The final
// chunk always runs on the caller — it would otherwise idle in wg.Wait —
// and chunks the queue cannot absorb run inline too.
func parallelRows(rows, workers int, fn func(lo, hi int)) {
	if workers <= 1 || rows <= 1 {
		fn(0, rows)
		return
	}
	poolOnce.Do(startPool)
	o := poolObsPtr.Load()
	var wg sync.WaitGroup
	step := (rows + workers - 1) / workers
	lo := 0
	for ; lo+step < rows; lo += step {
		wg.Add(1)
		select {
		case poolTasks <- task{fn: fn, lo: lo, hi: lo + step, wg: &wg}:
			if o != nil {
				o.inflight.Add(1)
				o.dispatched.Inc()
			}
		default:
			wg.Done()
			fn(lo, lo+step)
			if o != nil {
				o.inline.Inc()
			}
		}
	}
	fn(lo, rows)
	wg.Wait()
}

// ParallelRows exposes the chunked row-parallel helper for other packages
// (e.g. batched embedding generation). The worker count is clamped to
// runtime.GOMAXPROCS(0) and to rows at call time. A non-positive count
// defers to the installed TuneConfig: rows at or below InlineRows run on
// the caller, and the count is capped at Workers and at one worker per
// BlockRows rows, so under the default config (BlockRows 64) a batch of at
// most 64 rows runs on the caller alone.
func ParallelRows(rows, workers int, fn func(lo, hi int)) {
	parallelRows(rows, clampWorkers(workers, rows), fn)
}
