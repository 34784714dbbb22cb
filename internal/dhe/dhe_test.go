package dhe

import (
	"math"
	"math/rand"
	"testing"

	"secemb/internal/nn"
	"secemb/internal/tensor"
)

func smallDHE(seed int64) *DHE {
	rng := rand.New(rand.NewSource(seed))
	return New(Config{K: 32, Hidden: []int{24}, Dim: 8, Seed: seed}, rng)
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	d := smallDHE(1)
	out := d.Generate([]uint64{1, 2, 3})
	if out.Rows != 3 || out.Cols != 8 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	again := d.Generate([]uint64{1, 2, 3})
	if !tensor.AllClose(out, again, 0) {
		t.Fatal("Generate must be deterministic")
	}
	// Same id in different batch positions → same embedding.
	mix := d.Generate([]uint64{2, 1})
	if !tensor.AllClose(tensor.SliceRows(mix, 1, 2), tensor.SliceRows(out, 0, 1), 0) {
		t.Fatal("embedding must not depend on batch position")
	}
}

func TestDistinctIdsDistinctEmbeddings(t *testing.T) {
	d := smallDHE(2)
	out := d.Generate([]uint64{10, 11})
	if tensor.AllClose(tensor.SliceRows(out, 0, 1), tensor.SliceRows(out, 1, 2), 1e-6) {
		t.Fatal("distinct ids should produce distinct embeddings")
	}
}

func TestToTableMatchesGenerate(t *testing.T) {
	d := smallDHE(3)
	table := d.ToTable(100)
	if table.Rows != 100 || table.Cols != 8 {
		t.Fatalf("table shape %dx%d", table.Rows, table.Cols)
	}
	probe := d.Generate([]uint64{0, 57, 99})
	for i, id := range []int{0, 57, 99} {
		for c := 0; c < 8; c++ {
			if table.At(id, c) != probe.At(i, c) {
				t.Fatalf("ToTable row %d differs from Generate", id)
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// DHE must be able to fit a small target embedding table — the basis
	// of the paper's accuracy-parity results (Table V, Fig. 14).
	rng := rand.New(rand.NewSource(4))
	d := New(Config{K: 64, Hidden: []int{64}, Dim: 4, Seed: 4}, rng)
	const rows = 32
	target := tensor.NewGaussian(rows, 4, 0.5, rng)
	ids := make([]uint64, rows)
	for i := range ids {
		ids[i] = uint64(i)
	}
	opt := nn.NewAdam(0.01)
	loss := func() float64 {
		out := d.Generate(ids)
		return tensor.Norm2(tensor.Sub(out, target))
	}
	before := loss()
	for step := 0; step < 300; step++ {
		nn.ZeroGrads(d.Decoder)
		out := d.Generate(ids)
		grad := tensor.Sub(out, target)
		tensor.ScaleInPlace(grad, 2.0/float32(rows))
		d.Backward(grad)
		opt.Step(d.Params())
	}
	after := loss()
	if after > before*0.2 {
		t.Fatalf("training barely improved: %v → %v", before, after)
	}
}

func TestNumBytesIndependentOfTableSize(t *testing.T) {
	d := smallDHE(5)
	b := d.NumBytes()
	if b <= 0 {
		t.Fatal("NumBytes must be positive")
	}
	// ToTable(10) and ToTable(10000) would differ; the generator itself
	// has constant footprint.
	if d.NumBytes() != b {
		t.Fatal("NumBytes changed")
	}
	// Footprint must be decoder-dominated and far below a large table.
	bigTable := int64(1_000_000 * 8 * 4)
	if b > bigTable/10 {
		t.Fatalf("DHE footprint %d implausibly large", b)
	}
}

// builtFLOPs is the multiply-accumulate count of one id through a built
// decoder: 2·in·out per linear layer.
func builtFLOPs(d *DHE) int64 {
	var f int64
	for _, l := range d.Decoder.Layers {
		if lin, ok := l.(*nn.Linear); ok {
			f += 2 * int64(lin.In) * int64(lin.Out)
		}
	}
	return f
}

func TestFLOPs(t *testing.T) {
	// Layers: 32→24, 24→8: 2*(32*24 + 24*8) MACs.
	want := int64(2 * (32*24 + 24*8))
	if got := builtFLOPs(smallDHE(6)); got != want {
		t.Fatalf("FLOPs=%d, want %d", got, want)
	}
}

// TestDecoderParamsMatchBuiltDHE: the analytic count the cost model and
// the footprint tables read must describe the decoder New builds.
func TestDecoderParamsMatchBuiltDHE(t *testing.T) {
	for _, cfg := range []Config{
		{K: 32, Hidden: []int{24}, Dim: 8, Seed: 1},
		UniformConfig(16, 1),
		VariedConfig(16, 1000, 1),
	} {
		d := New(cfg, rand.New(rand.NewSource(1)))
		w, b := cfg.DecoderParams()
		if f := builtFLOPs(d); f != 2*w {
			t.Fatalf("%+v: built FLOPs %d != 2×weights %d", cfg, f, 2*w)
		}
		if want := 4*(w+b) + int64(cfg.K)*16; d.NumBytes() != want {
			t.Fatalf("%+v: built NumBytes %d != analytic %d", cfg, d.NumBytes(), want)
		}
	}
}

func TestUniformConfig(t *testing.T) {
	c := UniformConfig(16, 1)
	if c.K != 1024 || len(c.Hidden) != 2 || c.Hidden[0] != 512 || c.Hidden[1] != 256 || c.Dim != 16 {
		t.Fatalf("UniformConfig=%+v", c)
	}
}

func TestVariedScaleMonotone(t *testing.T) {
	if VariedScale(1e7) != 1 || VariedScale(2e7) != 1 {
		t.Fatal("scale at/above 1e7 must be 1")
	}
	prev := 2.0
	for _, n := range []int{10_000_000, 1_000_000, 100_000, 10_000, 1000, 100, 10} {
		s := VariedScale(n)
		if s > prev || s <= 0 || s > 1 {
			t.Fatalf("VariedScale(%d)=%v not monotone in (0,1]", n, s)
		}
		prev = s
	}
	// 0.125 per decade.
	if math.Abs(VariedScale(1_000_000)-0.125) > 1e-9 {
		t.Fatalf("VariedScale(1e6)=%v, want 0.125", VariedScale(1_000_000))
	}
	if VariedScale(10) != 1.0/64 {
		t.Fatalf("floor not applied: %v", VariedScale(10))
	}
}

func TestVariedConfigSmallerForSmallTables(t *testing.T) {
	big := VariedConfig(16, 10_000_000, 1)
	small := VariedConfig(16, 10_000, 1)
	if small.K >= big.K || small.Hidden[0] >= big.Hidden[0] {
		t.Fatalf("varied config not smaller: %+v vs %+v", small, big)
	}
	if small.K < 32 || small.K%16 != 0 {
		t.Fatalf("width floor/rounding violated: %+v", small)
	}
	if big.K != 1024 {
		t.Fatalf("full-size varied K=%d, want 1024", big.K)
	}
}

func TestLLMConfig(t *testing.T) {
	c := LLMConfig(1024, 1)
	if c.K != 2048 || len(c.Hidden) != 3 || c.Hidden[0] != 2048 || c.Dim != 1024 {
		t.Fatalf("LLMConfig=%+v", c)
	}
}

func TestVariedScalePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	VariedScale(0)
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{K: 0, Dim: 8}, rand.New(rand.NewSource(1)))
}

func TestGaussianEncodingVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	d := New(Config{K: 32, Hidden: []int{16}, Dim: 8, Seed: 50, Gaussian: true}, rng)
	out := d.Generate([]uint64{1, 2, 1})
	if out.Rows != 3 || out.Cols != 8 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	if !tensor.AllClose(tensor.SliceRows(out, 0, 1), tensor.SliceRows(out, 2, 3), 0) {
		t.Fatal("Gaussian variant must stay deterministic per id")
	}
	if d.NumBytes() <= 0 {
		t.Fatal("NumBytes")
	}
	// Gaussian and uniform encoders of the same config differ.
	du := New(Config{K: 32, Hidden: []int{16}, Dim: 8, Seed: 50}, rand.New(rand.NewSource(50)))
	if tensor.AllClose(du.EncodeBatch([]uint64{1}), d.EncodeBatch([]uint64{1}), 1e-6) {
		t.Fatal("encodings should differ between variants")
	}
}

func TestGaussianVariantTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d := New(Config{K: 64, Hidden: []int{64}, Dim: 4, Seed: 51, Gaussian: true}, rng)
	const rows = 32
	target := tensor.NewGaussian(rows, 4, 0.5, rng)
	ids := make([]uint64, rows)
	for i := range ids {
		ids[i] = uint64(i)
	}
	opt := nn.NewAdam(0.01)
	loss := func() float64 { return tensor.Norm2(tensor.Sub(d.Generate(ids), target)) }
	before := loss()
	for step := 0; step < 300; step++ {
		nn.ZeroGrads(d.Decoder)
		grad := tensor.Sub(d.Generate(ids), target)
		tensor.ScaleInPlace(grad, 2.0/float32(rows))
		d.Backward(grad)
		opt.Step(d.Params())
	}
	if after := loss(); after > before*0.2 {
		t.Fatalf("Gaussian-encoded DHE failed to fit: %v → %v", before, after)
	}
}

// TestQuantizedDHE: a DHE serving from its quantized decoder stays close
// to the float one, is well below its footprint, and cannot train.
func TestQuantizedDHE(t *testing.T) {
	d := smallDHE(70)
	q := nn.QuantizeSequential(d.Decoder)
	ids := []uint64{0, 15, 99}
	want := d.Generate(ids)
	got := q.Forward(d.EncodeBatch(ids))
	if got.Rows != 3 || got.Cols != 8 {
		t.Fatalf("shape %dx%d", got.Rows, got.Cols)
	}
	// Small drift only.
	if diff := tensor.MaxAbsDiff(got, want); diff > 0.05 {
		t.Fatalf("quantized DHE drifted by %v", diff)
	}
	// Packed 16-bit weight lanes: ≈2× smaller than float32 (the packing
	// trades half the flat-int8 compression for the ~4× SWAR speedup).
	if qBytes := d.NumBytes() - d.Decoder.NumBytes() + q.NumBytes(); qBytes >= d.NumBytes()*3/4 {
		t.Fatalf("quantized footprint %d not well below float %d", qBytes, d.NumBytes())
	}
	// Inference-only.
	defer func() {
		if recover() == nil {
			t.Fatal("quantized Backward must panic")
		}
	}()
	q.Backward(tensor.New(3, 8))
}
