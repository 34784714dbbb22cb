package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPair(seed int64) (*Matrix, *Matrix, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	r, c := 1+rng.Intn(10), 1+rng.Intn(10)
	return NewUniform(r, c, 1, rng), NewUniform(r, c, 1, rng), rng
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		a, b, _ := randPair(seed)
		return AllClose(Sub(Add(a, b), b), a, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutes(t *testing.T) {
	f := func(seed int64) bool {
		a, b, _ := randPair(seed)
		return AllClose(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAXPY(t *testing.T) {
	a, b, _ := randPair(9)
	want := Add(b, Scale(a, 0.5))
	AXPY(0.5, a, b)
	if !AllClose(b, want, 1e-6) {
		t.Fatal("AXPY mismatch")
	}
}

func TestAddInPlaceMatchesAdd(t *testing.T) {
	a, b, _ := randPair(13)
	want := Add(a, b)
	AddInPlace(a, b)
	if !AllClose(a, want, 0) {
		t.Fatal("AddInPlace mismatch")
	}
}

func TestScaleInPlace(t *testing.T) {
	a, _, _ := randPair(14)
	want := Scale(a, -3)
	ScaleInPlace(a, -3)
	if !AllClose(a, want, 0) {
		t.Fatal("ScaleInPlace mismatch")
	}
}

func TestAddRowVec(t *testing.T) {
	m := New(2, 3)
	AddRowVec(m, []float32{1, 2, 3})
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != float32(c+1) {
				t.Fatalf("at %d,%d got %v", r, c, m.At(r, c))
			}
		}
	}
}

func TestApply(t *testing.T) {
	m := FromSlice(1, 3, []float32{-1, 0, 2})
	got := Apply(m, func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	want := FromSlice(1, 3, []float32{0, 0, 2})
	if !AllClose(got, want, 0) {
		t.Fatalf("Apply got %v", got)
	}
	if m.Data[0] != -1 {
		t.Fatal("Apply must not mutate input")
	}
	ApplyInPlace(m, func(v float32) float32 { return v * 2 })
	if m.Data[2] != 4 {
		t.Fatal("ApplyInPlace mismatch")
	}
}

func TestColSums(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	got := ColSums(m)
	if got[0] != 4 || got[1] != 6 {
		t.Fatalf("ColSums got %v", got)
	}
}

func TestNorm2(t *testing.T) {
	m := FromSlice(1, 2, []float32{3, 4})
	if math.Abs(Norm2(m)-5) > 1e-9 {
		t.Fatalf("Norm2=%v, want 5", Norm2(m))
	}
}

func TestConcatAndSliceCols(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 1, []float32{5, 6})
	cat := Concat(a, b)
	if cat.Rows != 2 || cat.Cols != 3 {
		t.Fatalf("Concat shape %dx%d", cat.Rows, cat.Cols)
	}
	if cat.At(0, 2) != 5 || cat.At(1, 2) != 6 {
		t.Fatalf("Concat contents: %v", cat)
	}
	back := SliceCols(cat, 0, 2)
	if !AllClose(back, a, 0) {
		t.Fatal("SliceCols did not recover original")
	}
}

func TestConcatEmpty(t *testing.T) {
	m := Concat()
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("Concat() = %dx%d", m.Rows, m.Cols)
	}
}

func TestSliceRows(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	s := SliceRows(m, 1, 3)
	want := FromSlice(2, 2, []float32{3, 4, 5, 6})
	if !AllClose(s, want, 0) {
		t.Fatalf("SliceRows got %v", s)
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { Add(New(1, 2), New(2, 1)) },
		func() { AddRowVec(New(2, 3), []float32{1}) },
		func() { SliceCols(New(2, 2), 1, 3) },
		func() { SliceRows(New(2, 2), -1, 1) },
		func() { Concat(New(2, 2), New(3, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMaxAbsDiffAndAllClose(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(1, 2, []float32{1, 2.5})
	if d := MaxAbsDiff(a, b); math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("MaxAbsDiff=%v", d)
	}
	if AllClose(a, b, 0.4) {
		t.Fatal("AllClose should fail at tol 0.4")
	}
	if !AllClose(a, b, 0.6) {
		t.Fatal("AllClose should pass at tol 0.6")
	}
	if AllClose(a, New(2, 1), 10) {
		t.Fatal("AllClose must reject shape mismatch")
	}
}
