package oblivious

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask64(t *testing.T) {
	if Mask64(true) != ^uint64(0) {
		t.Fatal("Mask64(true) != all-ones")
	}
	if Mask64(false) != 0 {
		t.Fatal("Mask64(false) != 0")
	}
}

func TestEqMatchesOperator(t *testing.T) {
	f := func(a, b uint64) bool {
		want := uint64(0)
		if a == b {
			want = ^uint64(0)
		}
		return Eq(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Edge cases quick.Check may miss.
	for _, c := range [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {^uint64(0), ^uint64(0)},
		{1 << 63, 1 << 63}, {1 << 63, 0}, {math.MaxUint64, math.MaxUint64 - 1}} {
		got := Eq(c[0], c[1])
		want := uint64(0)
		if c[0] == c[1] {
			want = ^uint64(0)
		}
		if got != want {
			t.Fatalf("Eq(%d,%d)=%x want %x", c[0], c[1], got, want)
		}
	}
}

func TestSelect64(t *testing.T) {
	if Select64(^uint64(0), 7, 9) != 7 {
		t.Fatal("Select64 all-ones must pick a")
	}
	if Select64(0, 7, 9) != 9 {
		t.Fatal("Select64 zero must pick b")
	}
}

func TestSelect32f(t *testing.T) {
	if Select32f(^uint32(0), 1.5, -2.5) != 1.5 {
		t.Fatal("Select32f all-ones must pick a")
	}
	if Select32f(0, 1.5, -2.5) != -2.5 {
		t.Fatal("Select32f zero must pick b")
	}
	// Preserve exact bit patterns including negative zero.
	v := Select32f(^uint32(0), float32(math.Copysign(0, -1)), 1)
	if math.Float32bits(v) != 1<<31 {
		t.Fatal("Select32f must preserve -0 bit pattern")
	}
}

func TestCondCopy(t *testing.T) {
	dst := []float32{1, 2, 3}
	src := []float32{4, 5, 6}
	CondCopy(0, dst, src)
	if dst[0] != 1 || dst[2] != 3 {
		t.Fatalf("CondCopy(0) modified dst: %v", dst)
	}
	CondCopy(^uint64(0), dst, src)
	if dst[0] != 4 || dst[2] != 6 {
		t.Fatalf("CondCopy(1) failed: %v", dst)
	}
}

func TestCondCopy64(t *testing.T) {
	dst := []uint64{1, 2}
	src := []uint64{3, 4}
	CondCopy64(0, dst, src)
	if dst[0] != 1 {
		t.Fatal("CondCopy64(0) modified dst")
	}
	CondCopy64(^uint64(0), dst, src)
	if dst[1] != 4 {
		t.Fatal("CondCopy64(1) failed")
	}
}

func TestMaxMatchesMathMax(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) ||
			math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true // out of scope for activations
		}
		want := a
		if b > a {
			want = b
		}
		return Max(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestReLU(t *testing.T) {
	x := []float32{-3, -0.5, 0, 0.5, 3}
	ReLU(x)
	want := []float32{0, 0, 0, 0.5, 3}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("ReLU[%d]=%v, want %v", i, x[i], want[i])
		}
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float32
		want int
	}{
		{[]float32{1}, 0},
		{[]float32{1, 2, 3}, 2},
		{[]float32{3, 2, 1}, 0},
		{[]float32{1, 3, 2}, 1},
		{[]float32{2, 2, 2}, 0}, // ties → lowest index
		{[]float32{-5, -1, -3}, 1},
		{[]float32{0, -0, 1e-10}, 2},
	}
	for _, c := range cases {
		if got := ArgMax(c.in); got != c.want {
			t.Fatalf("ArgMax(%v)=%d, want %d", c.in, got, c.want)
		}
	}
}

func TestArgMaxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(100)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		want := 0
		for i, v := range x {
			if v > x[want] {
				want = i
			}
		}
		if got := ArgMax(x); got != want {
			t.Fatalf("trial %d: ArgMax=%d, want %d (x=%v)", trial, got, want, x)
		}
	}
}

func TestArgMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ArgMax(nil)
}

func TestLookupScan(t *testing.T) {
	const rows, width = 8, 4
	data := make([]float32, rows*width)
	for i := range data {
		data[i] = float32(i)
	}
	out := make([]float32, width)
	for r := 0; r < rows; r++ {
		LookupScan(data, rows, width, uint64(r), out)
		for c := 0; c < width; c++ {
			if out[c] != float32(r*width+c) {
				t.Fatalf("row %d col %d: got %v", r, c, out[c])
			}
		}
	}
}

func TestLookupScanOutOfRangeLeavesOutput(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	out := []float32{-1, -1}
	LookupScan(data, 2, 2, 99, out) // no row matches
	if out[0] != -1 || out[1] != -1 {
		t.Fatalf("out-of-range index must not match any row: %v", out)
	}
}

func BenchmarkLookupScan64k(b *testing.B) {
	const rows, width = 65536, 64
	data := make([]float32, rows*width)
	out := make([]float32, width)
	b.SetBytes(int64(rows * width * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LookupScan(data, rows, width, uint64(i)%rows, out)
	}
}

func BenchmarkArgMaxVocab(b *testing.B) {
	x := make([]float32, 50257)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ArgMax(x)
	}
}
