package tensor

import (
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
			out.Set(i, j, sum)
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
		id.Set(i, i, 1)
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
