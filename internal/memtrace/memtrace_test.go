package memtrace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Touch("x", 1, Read) // must not panic
	tr.TouchRange("x", 0, 3, Write)
	tr.Reset()
	if tr.Enabled() || tr.Len() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer must behave as disabled/empty")
	}
}

func TestZeroValueDisabled(t *testing.T) {
	var tr Tracer
	tr.Touch("x", 1, Read)
	if tr.Len() != 0 {
		t.Fatal("zero-value tracer must not record")
	}
	tr.Enable()
	tr.Touch("x", 1, Read)
	if tr.Len() != 1 {
		t.Fatal("enabled tracer must record")
	}
}

func TestTouchRangeAndSnapshot(t *testing.T) {
	tr := NewEnabled()
	tr.TouchRange("tbl", 2, 5, Write)
	got := tr.Snapshot()
	want := Trace{{"tbl", 2, Write}, {"tbl", 3, Write}, {"tbl", 4, Write}}
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Snapshot must be a copy.
	got[0].Block = 99
	if tr.Snapshot()[0].Block != 2 {
		t.Fatal("Snapshot must copy")
	}
}

func TestReset(t *testing.T) {
	tr := NewEnabled()
	tr.Touch("a", 1, Read)
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset must clear trace")
	}
}

func TestTraceEqualAndFirstDiff(t *testing.T) {
	a := Trace{{"t", 1, Read}, {"t", 2, Read}}
	b := Trace{{"t", 1, Read}, {"t", 2, Read}}
	c := Trace{{"t", 1, Read}, {"t", 3, Read}}
	d := Trace{{"t", 1, Read}}
	if !a.Equal(b) || a.FirstDiff(b) != -1 {
		t.Fatal("identical traces must compare equal")
	}
	if a.Equal(c) || a.FirstDiff(c) != 1 {
		t.Fatalf("FirstDiff(a,c)=%d, want 1", a.FirstDiff(c))
	}
	if a.Equal(d) || a.FirstDiff(d) != 1 {
		t.Fatalf("FirstDiff(a,d)=%d, want 1", a.FirstDiff(d))
	}
}

func TestBlocksAndHistogram(t *testing.T) {
	tr := NewEnabled()
	tr.Touch("t", 5, Read)
	tr.Touch("t", 3, Read)
	tr.Touch("t", 5, Write)
	tr.Touch("other", 9, Read)
	blocks := tr.Snapshot().Blocks("t")
	if len(blocks) != 2 || blocks[0] != 3 || blocks[1] != 5 {
		t.Fatalf("Blocks=%v", blocks)
	}
	h := tr.Snapshot().Histogram("t")
	if h[5] != 2 || h[3] != 1 || len(h) != 2 {
		t.Fatalf("Histogram=%v", h)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("Op.String mismatch")
	}
	a := Access{"tbl", 7, Write}
	if a.String() != "W@tbl[7]" {
		t.Fatalf("Access.String=%q", a.String())
	}
}

func TestChiSquareUniform(t *testing.T) {
	if ChiSquareUniform(nil) != 0 || ChiSquareUniform([]int{0, 0}) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
	// Perfectly uniform → 0.
	if v := ChiSquareUniform([]int{10, 10, 10, 10}); v != 0 {
		t.Fatalf("uniform chi² = %v, want 0", v)
	}
	// Concentrated → large.
	if v := ChiSquareUniform([]int{40, 0, 0, 0}); v <= 100 {
		t.Fatalf("concentrated chi² = %v, want > 100", v)
	}
}

func TestChiSquareUniformSamples(t *testing.T) {
	// Draw genuinely uniform samples; statistic should sit below the
	// 99.9% critical value.
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, 64)
	for i := 0; i < 64*200; i++ {
		counts[rng.Intn(64)]++
	}
	chi := ChiSquareUniform(counts)
	if crit := ChiSquareCritical999(63); chi > crit {
		t.Fatalf("uniform samples rejected: chi²=%v > crit=%v", chi, crit)
	}
}

func TestChiSquareCritical999(t *testing.T) {
	// Known reference: df=10 → ≈29.59, df=100 → ≈149.45.
	if v := ChiSquareCritical999(10); math.Abs(v-29.59) > 1.0 {
		t.Fatalf("crit(10)=%v, want ≈29.59", v)
	}
	if v := ChiSquareCritical999(100); math.Abs(v-149.45) > 2.0 {
		t.Fatalf("crit(100)=%v, want ≈149.45", v)
	}
	if ChiSquareCritical999(0) != 0 {
		t.Fatal("crit(0) must be 0")
	}
}

func TestMutualInformationLeakyLookup(t *testing.T) {
	// A direct table lookup: secret s always touches block s.
	leak := make([]map[int64]int, 8)
	for s := range leak {
		leak[s] = map[int64]int{int64(s): 100}
	}
	mi := MutualInformationBits(leak)
	if math.Abs(mi-3) > 1e-9 { // log2(8) = 3 bits
		t.Fatalf("leaky lookup MI=%v, want 3", mi)
	}
}

func TestMutualInformationSecureScheme(t *testing.T) {
	// Every secret produces the same observation → 0 bits.
	leak := make([]map[int64]int, 8)
	for s := range leak {
		leak[s] = map[int64]int{0: 50, 1: 50}
	}
	if mi := MutualInformationBits(leak); mi > 1e-9 {
		t.Fatalf("secure scheme MI=%v, want 0", mi)
	}
	if MutualInformationBits(nil) != 0 {
		t.Fatal("MI(nil) must be 0")
	}
}

func TestTraceExportRoundTrip(t *testing.T) {
	tr := Trace{{"tbl", 3, Read}, {"oram.tree", 17, Write}, {"stash", 0, Read}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) {
		t.Fatalf("round trip: %v vs %v", got, tr)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"R onlytwo",
		"X region 3",
		"R region notanumber",
	}
	for i, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d must error", i)
		}
	}
	// Blank lines tolerated.
	got, err := ReadTrace(strings.NewReader("\nR a 1\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank-line handling: %v %v", got, err)
	}
}
