package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// transpose returns a new matrix that is the transpose of m (the
// reference the transposed matmul variants are checked against).
func (m *Matrix) transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

func TestNewIsZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2)=%v, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row aliasing broken: %v", row)
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must alias underlying storage")
	}
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0)=%v, want 3", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong length")
		}
	}()
	FromSlice(2, 2, []float32{1})
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("bad transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != tr.At(c, r) {
				t.Fatalf("transpose mismatch at %d,%d", r, c)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewUniform(1+rng.Intn(8), 1+rng.Intn(8), 1, rng)
		return AllClose(m, m.transpose().transpose(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroFill(t *testing.T) {
	m := NewUniform(3, 3, 1, rand.New(rand.NewSource(1)))
	m.Fill(2.5)
	for _, v := range m.Data {
		if v != 2.5 {
			t.Fatalf("Fill: got %v", v)
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero: got %v", v)
		}
	}
}

func TestXavierScale(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewXavier(100, 100, rng)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range m.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("Xavier sample %v out of [-%v, %v]", v, limit, limit)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewGaussian(200, 200, 0.5, rng)
	mean := Sum(m) / float64(len(m.Data))
	if math.Abs(mean) > 0.01 {
		t.Fatalf("mean %v too far from 0", mean)
	}
	var varsum float64
	for _, v := range m.Data {
		varsum += float64(v) * float64(v)
	}
	std := math.Sqrt(varsum / float64(len(m.Data)))
	if math.Abs(std-0.5) > 0.01 {
		t.Fatalf("std %v, want ~0.5", std)
	}
}

func TestNumBytes(t *testing.T) {
	if got := New(10, 10).NumBytes(); got != 400 {
		t.Fatalf("NumBytes=%d, want 400", got)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice(1, 2, []float32{1, 2})
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	large := New(100, 100)
	if large.String() != "Matrix(100x100)" {
		t.Fatalf("large String=%q", large.String())
	}
}
