package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"secemb/internal/obs"
)

// Oracles: naive triple-loop references for the transposed products
// (naiveMatMul lives in matmul_test.go).

func naiveMatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for k := 0; k < a.Rows; k++ {
				sum += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func naiveMatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// kernelShapes exercises the register-blocked kernels across the shapes
// that stress unrolling and work partitioning: 1×1, prime dimensions (no
// dimension divisible by the 4-wide block), k ≡ 1..3 (mod 4) remainders,
// and row counts below any plausible worker count.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 2, 3},
	{2, 3, 4},
	{3, 4, 5},
	{5, 7, 3},
	{13, 17, 11},
	{7, 5, 1},
	{1, 9, 8},
	{4, 4, 4},
	{31, 2, 63},
	{2, 64, 2},
	{64, 3, 64},
	{37, 41, 29},
}

func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range kernelShapes {
		for _, threads := range []int{1, 3, 0} {
			name := fmt.Sprintf("%dx%dx%d/t%d", s.m, s.k, s.n, threads)
			t.Run(name, func(t *testing.T) {
				a := NewUniform(s.m, s.k, 1, rng)
				b := NewUniform(s.k, s.n, 1, rng)
				if got, want := MatMul(a, b, threads), naiveMatMul(a, b); !AllClose(got, want, 1e-4) {
					t.Fatalf("MatMul diverges from naive by %g", MaxAbsDiff(got, want))
				}
				at := NewUniform(s.k, s.m, 1, rng) // aᵀ·b with shared inner dim k
				if got, want := MatMulTransA(at, b, threads), naiveMatMulTransA(at, b); !AllClose(got, want, 1e-4) {
					t.Fatalf("MatMulTransA diverges from naive by %g", MaxAbsDiff(got, want))
				}
				bt := NewUniform(s.n, s.k, 1, rng) // a·bᵀ with shared inner dim k
				if got, want := MatMulTransB(a, bt, threads), naiveMatMulTransB(a, bt); !AllClose(got, want, 1e-4) {
					t.Fatalf("MatMulTransB diverges from naive by %g", MaxAbsDiff(got, want))
				}
			})
		}
	}
}

func TestIntoVariantsOverwriteStaleContents(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewUniform(9, 13, 1, rng)
	b := NewUniform(13, 7, 1, rng)

	dst := New(9, 7)
	dst.Fill(99)
	MatMulInto(dst, a, b, 2)
	if !AllClose(dst, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMulInto left stale contents")
	}

	dstA := New(13, 7)
	dstA.Fill(99)
	bb := NewUniform(9, 7, 1, rng)
	MatMulTransAInto(dstA, a, bb, 2)
	if !AllClose(dstA, naiveMatMulTransA(a, bb), 1e-4) {
		t.Fatal("MatMulTransAInto left stale contents")
	}

	dstB := New(9, 5)
	dstB.Fill(99)
	bt := NewUniform(5, 13, 1, rng)
	MatMulTransBInto(dstB, a, bt, 2)
	if !AllClose(dstB, naiveMatMulTransB(a, bt), 1e-4) {
		t.Fatal("MatMulTransBInto left stale contents")
	}
}

// TestPoolConcurrentMatMuls hammers the persistent worker pool from many
// goroutines at once (run under -race via `make race`): results must stay
// correct when chunks from independent multiplications interleave on the
// shared workers.
func TestPoolConcurrentMatMuls(t *testing.T) {
	prev := runtime.GOMAXPROCS(8) // force multi-worker dispatch even on 1-CPU hosts
	defer runtime.GOMAXPROCS(prev)
	reg := obs.NewRegistry()
	SetObserver(reg)
	defer SetObserver(nil)
	dispatched := poolDispatched.Load()

	rng := rand.New(rand.NewSource(13))
	a := NewUniform(64, 32, 1, rng)
	b := NewUniform(32, 48, 1, rng)
	want := naiveMatMul(a, b)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := MatMul(a, b, 4); !AllClose(got, want, 1e-4) {
					t.Error("concurrent MatMul produced a wrong result")
					return
				}
			}
		}()
	}
	wg.Wait()

	if poolDispatched.Load() == dispatched {
		t.Error("pool never dispatched a chunk despite GOMAXPROCS > 1")
	} else if inflight := reg.Gauge("tensor_pool_inflight").Value(); inflight != 0 {
		t.Errorf("pool reports %d inflight chunks after quiescence", inflight)
	}
}
