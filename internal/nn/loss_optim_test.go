package nn

import (
	"math"
	"math/rand"
	"testing"

	"secemb/internal/tensor"
)

func TestBCEWithLogitsKnown(t *testing.T) {
	logits := tensor.FromSlice(2, 1, []float32{0, 0})
	loss, grad := BCEWithLogits(logits, []float32{1, 0})
	// At logit 0 each term is log 2.
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("loss=%v, want ln2", loss)
	}
	// grad = (σ(0) - y)/n = ±0.25
	if math.Abs(float64(grad.Data[0])+0.25) > 1e-6 || math.Abs(float64(grad.Data[1])-0.25) > 1e-6 {
		t.Fatalf("grad=%v", grad)
	}
}

func TestBCEWithLogitsGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.NewUniform(6, 1, 2, rng)
	labels := []float32{1, 0, 1, 1, 0, 0}
	_, grad := BCEWithLogits(logits, labels)
	for i := range logits.Data {
		want := numericGrad(logits, i, func() float64 {
			l, _ := BCEWithLogits(logits, labels)
			return l
		})
		if math.Abs(float64(grad.Data[i])-want) > 1e-3 {
			t.Fatalf("grad[%d]=%v, want %v", i, grad.Data[i], want)
		}
	}
}

func TestBCEStableAtExtremes(t *testing.T) {
	logits := tensor.FromSlice(2, 1, []float32{80, -80})
	loss, _ := BCEWithLogits(logits, []float32{1, 0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > 1e-6 {
		t.Fatalf("extreme-logit loss=%v", loss)
	}
}

func TestCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes → loss = ln 4.
	logits := tensor.New(2, 4)
	loss, grad := CrossEntropyLogits(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss=%v, want ln4", loss)
	}
	// grad rows: p - onehot, scaled by 1/2.
	if math.Abs(float64(grad.At(0, 0))-(0.25-1)/2) > 1e-6 {
		t.Fatalf("grad(0,0)=%v", grad.At(0, 0))
	}
	if math.Abs(float64(grad.At(0, 1))-0.25/2) > 1e-6 {
		t.Fatalf("grad(0,1)=%v", grad.At(0, 1))
	}
}

func TestCrossEntropyIgnoreIndex(t *testing.T) {
	logits := tensor.New(2, 3)
	logits.Row(0)[1] = 5
	loss, grad := CrossEntropyLogits(logits, []int{1, IgnoreIndex})
	lossAll, _ := CrossEntropyLogits(tensor.SliceRows(logits, 0, 1), []int{1})
	if math.Abs(loss-lossAll) > 1e-9 {
		t.Fatalf("ignored row changed loss: %v vs %v", loss, lossAll)
	}
	for _, v := range grad.Row(1) {
		if v != 0 {
			t.Fatal("ignored row must have zero grad")
		}
	}
	// All-ignored: zero loss, zero grad.
	l0, g0 := CrossEntropyLogits(logits, []int{IgnoreIndex, IgnoreIndex})
	if l0 != 0 || tensor.Norm2(g0) != 0 {
		t.Fatal("all-ignored must give zero loss and grad")
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.NewUniform(4, 5, 1, rng)
	targets := []int{0, 2, 4, 1}
	_, grad := CrossEntropyLogits(logits, targets)
	for i := range logits.Data {
		want := numericGrad(logits, i, func() float64 {
			l, _ := CrossEntropyLogits(logits, targets)
			return l
		})
		if math.Abs(float64(grad.Data[i])-want) > 1e-3 {
			t.Fatalf("grad[%d]=%v, want %v", i, grad.Data[i], want)
		}
	}
}

func TestCrossEntropyBadTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossEntropyLogits(tensor.New(1, 3), []int{7})
}

func TestPerplexity(t *testing.T) {
	if p := Perplexity(math.Log(4)); math.Abs(p-4) > 1e-9 {
		t.Fatalf("Perplexity(ln4)=%v", p)
	}
}

// trainQuadratic checks an optimizer minimizes ½‖w - target‖².
func trainQuadratic(t *testing.T, opt Optimizer, steps int, tol float64) {
	t.Helper()
	target := []float32{3, -2, 0.5}
	p := NewParam("w", tensor.New(1, 3))
	for s := 0; s < steps; s++ {
		p.ZeroGrad()
		for i := range p.Grad.Data {
			p.Grad.Data[i] = p.Value.Data[i] - target[i]
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(float64(p.Value.Data[i]-target[i])) > tol {
			t.Fatalf("w[%d]=%v, want %v", i, p.Value.Data[i], target[i])
		}
	}
}

func TestAdamConverges(t *testing.T) { trainQuadratic(t, NewAdam(0.05), 800, 1e-2) }

func TestWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", tensor.FromSlice(1, 1, []float32{10}))
	o := NewAdam(0.5)
	o.WeightDecay = 0.5
	for i := 0; i < 50; i++ {
		p.ZeroGrad()
		o.Step([]*Param{p})
	}
	if math.Abs(float64(p.Value.Data[0])) > 1 {
		t.Fatalf("weight decay failed to shrink: %v", p.Value.Data[0])
	}
}

func TestEndToEndXORTraining(t *testing.T) {
	// A 2-layer MLP must learn XOR — the canonical sanity check that
	// Forward/Backward/optimizer compose correctly.
	rng := rand.New(rand.NewSource(12))
	mlp := NewSequential(NewLinear(2, 8, rng), &ReLU{}, NewLinear(8, 1, rng))
	x := tensor.FromSlice(4, 2, []float32{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []float32{0, 1, 1, 0}
	opt := NewAdam(0.05)
	var loss float64
	for step := 0; step < 600; step++ {
		ZeroGrads(mlp)
		logits := mlp.Forward(x)
		var grad *tensor.Matrix
		loss, grad = BCEWithLogits(logits, labels)
		mlp.Backward(grad)
		opt.Step(mlp.Params())
	}
	if loss > 0.05 {
		t.Fatalf("XOR failed to train: loss=%v", loss)
	}
	s := &Sigmoid{}
	probs := s.Forward(mlp.Forward(x))
	for i, want := range labels {
		got := probs.Data[i]
		if (want == 1 && got < 0.5) || (want == 0 && got > 0.5) {
			t.Fatalf("XOR output %d = %v, want %v side", i, got, want)
		}
	}
}

func TestEmbeddingLookupAndBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := NewEmbedding(10, 4, rng)
	out := e.LookupBatch([]int{3, 3, 7})
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	if !tensor.AllClose(tensor.SliceRows(out, 0, 1), tensor.SliceRows(out, 1, 2), 0) {
		t.Fatal("same id must give same row")
	}
	grad := tensor.New(3, 4)
	grad.Fill(1)
	e.BackwardBatch([]int{3, 3, 7}, grad)
	if e.Weight.Grad.At(3, 0) != 2 {
		t.Fatalf("duplicate ids must accumulate: %v", e.Weight.Grad.At(3, 0))
	}
	if e.Weight.Grad.At(7, 0) != 1 || e.Weight.Grad.At(0, 0) != 0 {
		t.Fatal("scatter wrong")
	}
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	e := NewEmbedding(5, 2, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.LookupBatch([]int{5})
}

func TestEmbeddingNumBytes(t *testing.T) {
	e := NewEmbedding(100, 16, rand.New(rand.NewSource(1)))
	if e.NumBytes() != 100*16*4 {
		t.Fatalf("NumBytes=%d", e.NumBytes())
	}
}
