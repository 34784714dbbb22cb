package tensor

import (
	"fmt"
	"runtime"
)

// The row-tile used when splitting a multiplication across goroutines was
// a hand-picked constant (blockSize = 64); it is now TuneConfig.BlockRows,
// machine-measured by Autotune (see autotune.go) with 64 as the static
// default.

// MatMul returns a·b using nthreads workers (nthreads <= 0 means all
// available CPUs). The kernel keeps the classic i-k-j loop order so the
// inner loop streams rows of b and the output — cache-friendly and
// vectorizable without explicit SIMD, preserving the compute-bound
// character the paper's DHE latency model relies on — and register-blocks
// it four k-steps at a time (see matMulRange).
func MatMul(a, b *Matrix, nthreads int) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b, nthreads)
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage. dst must be
// a.Rows×b.Cols and must not alias a or b.
func MatMulInto(dst, a, b *Matrix, nthreads int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// The single-worker fast path skips closure construction entirely —
	// passing the kernel through parallelRows heap-allocates the capture
	// even when it runs inline, which alone breaks the hot path's
	// zero-allocation guarantee on small machines.
	if clampWorkers(nthreads, a.Rows) <= 1 {
		matMulRange(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, clampWorkers(nthreads, a.Rows), func(lo, hi int) {
		matMulRange(dst, a, b, lo, hi)
	})
}

// matMulRange computes rows [lo,hi) of dst = a·b.
//
// The i-k-j order is register-blocked over a four-row panel of b: each
// pass of the inner loop accumulates the contributions of four a-elements
// into the output row, so every out[j] load/store is amortized over four
// multiply-adds and the four b rows stream through cache together.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	kd := a.Cols
	for i := lo; i < hi; i++ {
		outRow := dst.Data[i*n : (i+1)*n]
		for j := range outRow {
			outRow[j] = 0
		}
		aRow := a.Row(i)
		k := 0
		for ; k+4 <= kd; k += 4 {
			a0, a1, a2, a3 := aRow[k], aRow[k+1], aRow[k+2], aRow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n : k*n+n]
			b1 := b.Data[(k+1)*n : (k+1)*n+n]
			b2 := b.Data[(k+2)*n : (k+2)*n+n]
			b3 := b.Data[(k+3)*n : (k+3)*n+n]
			for j, bv := range b0 {
				outRow[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < kd; k++ {
			av := aRow[k]
			if av == 0 {
				continue
			}
			bRow := b.Data[k*n : k*n+n]
			for j, bv := range bRow {
				outRow[j] += av * bv
			}
		}
	}
}

// MatMulTransB returns a·bᵀ without materializing the transpose.
// Used by backprop (dX = dY·Wᵀ) and attention (Q·Kᵀ).
func MatMulTransB(a, b *Matrix, nthreads int) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBInto(out, a, b, nthreads)
	return out
}

// MatMulTransBInto computes dst = a·bᵀ, reusing dst's storage. dst must be
// a.Rows×b.Rows and must not alias a or b.
func MatMulTransBInto(dst, a, b *Matrix, nthreads int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch dst %dx%d = %dx%d · (%dx%d)ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if clampWorkers(nthreads, a.Rows) <= 1 {
		matMulTransBRange(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, clampWorkers(nthreads, a.Rows), func(lo, hi int) {
		matMulTransBRange(dst, a, b, lo, hi)
	})
}

// matMulTransBRange computes rows [lo,hi) of dst = a·bᵀ with four
// independent column accumulators: the dot products of one a row against a
// panel of four b rows proceed in lockstep, so the a row is loaded once
// per panel instead of once per output column.
func matMulTransBRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		aRow := a.Row(i)
		outRow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
			var s0, s1, s2, s3 float32
			for k, av := range aRow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			outRow[j], outRow[j+1], outRow[j+2], outRow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			bRow := b.Row(j)
			var sum float32
			for k, av := range aRow {
				sum += av * bRow[k]
			}
			outRow[j] = sum
		}
	}
}

// MatMulTransA returns aᵀ·b without materializing the transpose.
// Used by backprop for weight gradients (dW = Xᵀ·dY).
func MatMulTransA(a, b *Matrix, nthreads int) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(out, a, b, nthreads)
	return out
}

// MatMulTransAInto computes dst = aᵀ·b, reusing dst's storage. dst must be
// a.Cols×b.Cols and must not alias a or b.
func MatMulTransAInto(dst, a, b *Matrix, nthreads int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch dst %dx%d = (%dx%d)ᵀ · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// Partition over output rows (columns of a) so workers never share
	// output cells.
	if clampWorkers(nthreads, a.Cols) <= 1 {
		matMulTransARange(dst, a, b, 0, a.Cols)
		return
	}
	parallelRows(a.Cols, clampWorkers(nthreads, a.Cols), func(lo, hi int) {
		matMulTransARange(dst, a, b, lo, hi)
	})
}

// matMulTransARange computes rows [lo,hi) of dst = aᵀ·b, register-blocked
// four k-steps (rows of a and b) at a time like matMulRange.
func matMulTransARange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	ac := a.Cols
	for i := lo; i < hi; i++ { // i indexes a column of a / row of dst
		outRow := dst.Row(i)
		for j := range outRow {
			outRow[j] = 0
		}
		k := 0
		for ; k+4 <= a.Rows; k += 4 {
			a0 := a.Data[k*ac+i]
			a1 := a.Data[(k+1)*ac+i]
			a2 := a.Data[(k+2)*ac+i]
			a3 := a.Data[(k+3)*ac+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n : k*n+n]
			b1 := b.Data[(k+1)*n : (k+1)*n+n]
			b2 := b.Data[(k+2)*n : (k+2)*n+n]
			b3 := b.Data[(k+3)*n : (k+3)*n+n]
			for j, bv := range b0 {
				outRow[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < a.Rows; k++ {
			av := a.Data[k*ac+i]
			if av == 0 {
				continue
			}
			bRow := b.Data[k*n : k*n+n]
			for j, bv := range bRow {
				outRow[j] += av * bv
			}
		}
	}
}

// clampWorkers bounds the worker count by CPUs and work items. GOMAXPROCS
// is read at call time — not captured at package init — so runtime
// resizing (serving pools size themselves against it) is always honored.
// When the caller doesn't pin a thread count (nthreads <= 0) the installed
// TuneConfig decides: batches at or below InlineRows skip the pool, the
// worker cap applies, and chunks never shrink below BlockRows. An explicit
// nthreads is honored (clamped to CPUs/items only) so profiling sweeps
// and tests can still pin exact worker counts.
func clampWorkers(nthreads, items int) int {
	procs := runtime.GOMAXPROCS(0)
	w := nthreads
	if w <= 0 {
		tc := currentTune()
		if items <= tc.InlineRows {
			return 1
		}
		w = procs
		if tc.Workers > 0 && tc.Workers < w {
			w = tc.Workers
		}
		if blk := tc.BlockRows; blk > 0 {
			if mx := (items + blk - 1) / blk; w > mx {
				w = mx
			}
		}
	}
	if w > procs {
		w = procs
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}
