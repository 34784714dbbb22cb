package data

import (
	"math"
	"math/rand"
	"testing"
)

func TestCriteoLayouts(t *testing.T) {
	if len(KaggleCardinalities) != 26 || len(TerabyteCardinalities) != 26 {
		t.Fatal("Criteo layouts must have 26 sparse features")
	}
	maxK, maxT := 0, 0
	for i := range KaggleCardinalities {
		if KaggleCardinalities[i] > maxK {
			maxK = KaggleCardinalities[i]
		}
		if TerabyteCardinalities[i] > maxT {
			maxT = TerabyteCardinalities[i]
		}
	}
	// "Criteo ... only go up to 1e7" (§VI-A2).
	if maxK < 1e7 || maxK > 2e7 || maxT < 9e6 || maxT > 1.1e7 {
		t.Fatalf("max cardinalities off: kaggle=%d terabyte=%d", maxK, maxT)
	}
}

func TestTableBytesMatchesPaperScale(t *testing.T) {
	// Table VI: Kaggle table model ≈ 2062.7 MB at dim 16; Terabyte
	// ≈ 11999.2 MB at dim 64. Raw rows×dim×4 accounting should land close
	// (the paper's numbers include small per-layer overheads).
	kaggleMB := float64(TableBytes(KaggleCardinalities, 16)) / 1e6
	teraMB := float64(TableBytes(TerabyteCardinalities, 64)) / 1e6
	if math.Abs(kaggleMB-2062.7)/2062.7 > 0.15 {
		t.Fatalf("Kaggle table %.1f MB, paper says 2062.7", kaggleMB)
	}
	if math.Abs(teraMB-11999.2)/11999.2 > 0.15 {
		t.Fatalf("Terabyte table %.1f MB, paper says 11999.2", teraMB)
	}
}

func TestScaleCardinalities(t *testing.T) {
	s := ScaleCardinalities([]int{1000, 10, 1}, 0.01)
	if s[0] != 10 || s[1] < 2 || s[2] < 2 {
		t.Fatalf("scaled: %v", s)
	}
	if len(s) != 3 {
		t.Fatal("length changed")
	}
}

func TestMetaCardinalities(t *testing.T) {
	sizes := MetaCardinalities(1)
	if len(sizes) != 788 {
		t.Fatalf("Meta layout must have 788 tables, got %d", len(sizes))
	}
	var total int64
	maxN := 0
	for _, n := range sizes {
		if n <= 0 {
			t.Fatal("non-positive table size")
		}
		if n > maxN {
			maxN = n
		}
		if n > 40_000_000 {
			t.Fatalf("size %d above the 4e7 cap", n)
		}
		total += int64(n)
	}
	if maxN < 20_000_000 {
		t.Fatalf("tail not heavy enough: max=%d", maxN)
	}
	// Footprint at dim 64 should be within 10% of the paper's 931 GB.
	gotGB := float64(total) * 64 * 4 / 1e9
	if math.Abs(gotGB-931.3)/931.3 > 0.10 {
		t.Fatalf("Meta footprint %.1f GB, want ≈931", gotGB)
	}
	// Deterministic.
	again := MetaCardinalities(1)
	for i := range sizes {
		if sizes[i] != again[i] {
			t.Fatal("MetaCardinalities must be deterministic per seed")
		}
	}
}

func TestZipfValueRangeAndSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 20000; i++ {
		v := ZipfValue(rng, n)
		if v >= n {
			t.Fatalf("value %d out of range", v)
		}
		counts[v]++
	}
	// Head must be much more popular than the tail.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[n-1] + counts[n-2] + counts[n-3]
	if head <= tail*5 {
		t.Fatalf("insufficient skew: head=%d tail=%d", head, tail)
	}
	if ZipfValue(rng, 1) != 0 {
		t.Fatal("ZipfValue(1) must be 0")
	}
}

func TestCTRBatchShapes(t *testing.T) {
	ds := NewCTR(4, []int{10, 100, 1000}, 3)
	rng := rand.New(rand.NewSource(4))
	b := ds.Sample(32, rng)
	if b.Dense.Rows != 32 || b.Dense.Cols != 4 {
		t.Fatalf("dense shape %dx%d", b.Dense.Rows, b.Dense.Cols)
	}
	if len(b.Sparse) != 3 || len(b.Sparse[0]) != 32 || len(b.Labels) != 32 {
		t.Fatal("batch layout wrong")
	}
	for f, card := range ds.Cardinalities {
		for _, v := range b.Sparse[f] {
			if v >= uint64(card) {
				t.Fatalf("feature %d value %d out of %d", f, v, card)
			}
		}
	}
	for _, y := range b.Labels {
		if y != 0 && y != 1 {
			t.Fatalf("label %v not binary", y)
		}
	}
}

func TestCTRLabelsBalancedAndSignalful(t *testing.T) {
	ds := NewCTR(4, []int{50, 50}, 5)
	rng := rand.New(rand.NewSource(6))
	b := ds.Sample(4000, rng)
	pos := 0
	for _, y := range b.Labels {
		if y == 1 {
			pos++
		}
	}
	rate := float64(pos) / 4000
	if rate < 0.15 || rate > 0.85 {
		t.Fatalf("label rate %.2f too extreme to train on", rate)
	}
	// The planted truth must make labels predictable: the Bayes-optimal
	// single-feature rule on hidden scores should beat chance. Check via
	// correlation of label with the hidden score of feature 0.
	var cov, varS float64
	mean := rate
	for r := 0; r < 4000; r++ {
		s := float64(ds.hiddenScore(0, b.Sparse[0][r]))
		cov += s * (float64(b.Labels[r]) - mean)
		varS += s * s
	}
	corr := cov / math.Sqrt(varS*float64(4000)*mean*(1-mean))
	if math.Abs(corr) < 0.02 {
		t.Fatalf("hidden score carries no signal: corr=%.4f", corr)
	}
}

func TestCTRDeterministicHiddenScore(t *testing.T) {
	a := NewCTR(2, []int{100}, 7)
	b := NewCTR(2, []int{100}, 7)
	for v := uint64(0); v < 50; v++ {
		if a.hiddenScore(0, v) != b.hiddenScore(0, v) {
			t.Fatal("hiddenScore must be deterministic per seed")
		}
	}
	c := NewCTR(2, []int{100}, 8)
	diff := 0
	for v := uint64(0); v < 50; v++ {
		if a.hiddenScore(0, v) != c.hiddenScore(0, v) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds must plant different truths")
	}
}

func TestCorpusGenerate(t *testing.T) {
	c := NewCorpus(500, 9)
	rng := rand.New(rand.NewSource(10))
	toks := c.Generate(5000, rng)
	if len(toks) != 5000 {
		t.Fatal("length")
	}
	for _, tok := range toks {
		if tok < 0 || tok >= 500 {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
	// Successor structure must dominate: count transitions that follow it.
	follow := 0
	for i := 0; i+1 < len(toks); i++ {
		if toks[i+1] == c.Successor(toks[i]) {
			follow++
		}
	}
	frac := float64(follow) / float64(len(toks)-1)
	if frac < 0.6 || frac > 0.85 {
		t.Fatalf("successor fraction %.2f, want ≈0.7", frac)
	}
}

func TestCorpusBatches(t *testing.T) {
	toks := make([]int, 100)
	for i := range toks {
		toks[i] = i
	}
	ins, tgts := Batches(toks, 10)
	if len(ins) != len(tgts) || len(ins) == 0 {
		t.Fatal("batch count")
	}
	for b := range ins {
		for i := range ins[b] {
			if tgts[b][i] != ins[b][i]+1 {
				t.Fatal("target must be input shifted by one")
			}
		}
	}
}

func TestCorpusPanicsOnTinyVocab(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCorpus(1, 0)
}
