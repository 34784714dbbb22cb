package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference three-loop implementation used as an oracle.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Row(i)[j] = sum
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b, 1)
	want := FromSlice(2, 2, []float32{58, 64, 139, 154})
	if !AllClose(got, want, 1e-5) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewUniform(5, 5, 1, rng)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Row(i)[i] = 1
	}
	if !AllClose(MatMul(a, id, 1), a, 1e-6) {
		t.Fatal("A·I != A")
	}
	if !AllClose(MatMul(id, a, 1), a, 1e-6) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := NewUniform(m, k, 1, rng)
		b := NewUniform(k, n, 1, rng)
		return AllClose(MatMul(a, b, 1), naiveMatMul(a, b), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewUniform(97, 53, 1, rng)
	b := NewUniform(53, 41, 1, rng)
	serial := MatMul(a, b, 1)
	for _, workers := range []int{2, 4, 8, 0} {
		par := MatMul(a, b, workers)
		if !AllClose(serial, par, 1e-5) {
			t.Fatalf("parallel (%d workers) differs from serial by %v", workers, MaxAbsDiff(serial, par))
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2), 1)
}

func TestMatMulTransB(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := NewUniform(m, k, 1, rng)
		b := NewUniform(n, k, 1, rng)
		return AllClose(MatMulTransB(a, b, 2), MatMul(a, b.transpose(), 1), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransA(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := NewUniform(k, m, 1, rng)
		b := NewUniform(k, n, 1, rng)
		return AllClose(MatMulTransA(a, b, 2), MatMul(a.transpose(), b, 1), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFloatKernelsDenseOnZeroActivations: the float kernels multiply every
// activation, zeros included. After a branchless ReLU the zeros derive
// from the ids, so skipping them would make timing and the weight rows
// loaded depend on secret sparsity. 0·Inf is NaN, so a skipped product
// shows up as a finite output where every output must be NaN. The Inf
// sits at inner index k-1 only: with k = 4 it is in a four-step block,
// with k = 5 in the tail loop.
func TestFloatKernelsDenseOnZeroActivations(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, k := range []int{4, 5} {
		// weights is a k×3 (or, transposed, 3×k) matrix of ones with Inf
		// at inner index k-1.
		weights := func(transposed bool) *Matrix {
			m := New(k, 3)
			if transposed {
				m = New(3, k)
			}
			for i := range m.Data {
				m.Data[i] = 1
			}
			for j := 0; j < 3; j++ {
				if transposed {
					m.Row(j)[k-1] = inf
				} else {
					m.Row(k - 1)[j] = inf
				}
			}
			return m
		}
		for name, got := range map[string]*Matrix{
			"MatMul":       MatMul(New(2, k), weights(false), 1),
			"MatMulTransA": MatMulTransA(New(k, 2), weights(false), 1),
			"MatMulTransB": MatMulTransB(New(2, k), weights(true), 1),
		} {
			for i, v := range got.Data {
				if !math.IsNaN(float64(v)) {
					t.Errorf("k=%d %s: out[%d] = %v, want NaN (0·Inf)", k, name, i, v)
				}
			}
		}
	}
}

func TestMatMulIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewUniform(10, 10, 1, rng)
	b := NewUniform(10, 10, 1, rng)
	dst := New(10, 10)
	dst.Fill(99) // stale values must be overwritten
	MatMulInto(dst, a, b, 2)
	if !AllClose(dst, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMulInto did not overwrite stale contents")
	}
}

func TestClampWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if w := clampWorkers(0, 100); w < 1 || w > procs {
		t.Fatalf("clampWorkers(0,100)=%d", w)
	}
	if w := clampWorkers(8, 2); w != min(2, procs) {
		t.Fatalf("clampWorkers(8,2)=%d, want %d", w, min(2, procs))
	}
	if w := clampWorkers(3, 100); w != min(3, procs) {
		t.Fatalf("clampWorkers(3,100)=%d", w)
	}
}

func TestParallelRowsCoversAll(t *testing.T) {
	hit := make([]bool, 37)
	ParallelRows(len(hit), 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hit[i] = true
		}
	})
	for i, h := range hit {
		if !h {
			t.Fatalf("row %d never visited", i)
		}
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewUniform(256, 256, 1, rng)
	y := NewUniform(256, 256, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y, 0)
	}
}
