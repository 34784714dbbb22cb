package nn

import (
	"math"
	"math/rand"
	"testing"

	"secemb/internal/tensor"
)

// numericGrad estimates d(loss)/d(param[i]) by central differences, where
// loss is computed by fn() from current parameter values.
func numericGrad(p *tensor.Matrix, i int, fn func() float64) float64 {
	const h = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + h
	up := fn()
	p.Data[i] = orig - h
	down := fn()
	p.Data[i] = orig
	return (up - down) / (2 * h)
}

// scalarLoss reduces a matrix to ½‖y‖² so dLoss/dy = y.
func scalarLoss(y *tensor.Matrix) float64 {
	var s float64
	for _, v := range y.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

// checkLayerGradients verifies Backward against numerical gradients for
// both the input and every parameter of the layer.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	forward := func() float64 { return scalarLoss(layer.Forward(x)) }

	y := layer.Forward(x)
	ZeroGrads(layer)
	dx := layer.Backward(y.Clone()) // dLoss/dy = y for the ½‖y‖² loss

	// Input gradient.
	for i := range x.Data {
		want := numericGrad(x, i, forward)
		got := float64(dx.Data[i])
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d]: got %v, want %v", i, got, want)
		}
	}
	// Parameter gradients. Note forward() re-runs with perturbed params.
	for _, p := range layer.Params() {
		for i := range p.Value.Data {
			want := numericGrad(p.Value, i, forward)
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %s grad[%d]: got %v, want %v", p.Name, i, got, want)
			}
		}
	}
}

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(3, 2, rng)
	l.W.Value = tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 1})
	l.B.Value = tensor.FromSlice(1, 2, []float32{0.5, -0.5})
	x := tensor.FromSlice(1, 3, []float32{1, 2, 3})
	y := l.Forward(x)
	want := tensor.FromSlice(1, 2, []float32{4.5, 4.5})
	if !tensor.AllClose(y, want, 1e-6) {
		t.Fatalf("got %v, want %v", y, want)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(4, 3, rng)
	x := tensor.NewUniform(5, 4, 1, rng)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestLinearShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLinear(3, 2, rand.New(rand.NewSource(1))).Forward(tensor.New(1, 4))
}

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromSlice(1, 4, []float32{-2, -0.0, 0.5, 3})
	y := r.Forward(x)
	want := tensor.FromSlice(1, 4, []float32{0, 0, 0.5, 3})
	if !tensor.AllClose(y, want, 0) {
		t.Fatalf("forward got %v", y)
	}
	g := r.Backward(tensor.FromSlice(1, 4, []float32{1, 1, 1, 1}))
	wantG := tensor.FromSlice(1, 4, []float32{0, 0, 1, 1})
	if !tensor.AllClose(g, wantG, 0) {
		t.Fatalf("backward got %v, want %v", g, wantG)
	}
}

func TestSigmoidGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.NewUniform(3, 4, 2, rng)
	checkLayerGradients(t, &Sigmoid{}, x, 2e-2)
}

func TestSigmoidRange(t *testing.T) {
	s := &Sigmoid{}
	y := s.Forward(tensor.FromSlice(1, 3, []float32{-100, 0, 100}))
	if y.Data[0] > 1e-6 || math.Abs(float64(y.Data[1])-0.5) > 1e-6 || y.Data[2] < 1-1e-6 {
		t.Fatalf("sigmoid extremes wrong: %v", y)
	}
}

func TestGELUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.NewUniform(3, 4, 2, rng)
	checkLayerGradients(t, &GELU{}, x, 2e-2)
}

func TestGELUKnownValues(t *testing.T) {
	g := &GELU{}
	y := g.Forward(tensor.FromSlice(1, 3, []float32{-10, 0, 10}))
	if math.Abs(float64(y.Data[0])) > 1e-3 {
		t.Fatalf("GELU(-10) ≈ 0, got %v", y.Data[0])
	}
	if y.Data[1] != 0 {
		t.Fatalf("GELU(0) = 0, got %v", y.Data[1])
	}
	if math.Abs(float64(y.Data[2])-10) > 1e-3 {
		t.Fatalf("GELU(10) ≈ 10, got %v", y.Data[2])
	}
}

func TestLayerNormForwardStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ln := NewLayerNorm(16, rng)
	x := tensor.NewUniform(4, 16, 3, rng)
	y := ln.Forward(x)
	for r := 0; r < y.Rows; r++ {
		var mean, varsum float64
		for _, v := range y.Row(r) {
			mean += float64(v)
		}
		mean /= 16
		for _, v := range y.Row(r) {
			d := float64(v) - mean
			varsum += d * d
		}
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %v", r, mean)
		}
		if math.Abs(varsum/16-1) > 1e-2 {
			t.Fatalf("row %d var %v", r, varsum/16)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ln := NewLayerNorm(6, rng)
	// Give gamma/beta non-trivial values so their gradients are exercised.
	for i := range ln.Gamma.Value.Data {
		ln.Gamma.Value.Data[i] = 1 + 0.1*float32(i)
		ln.Beta.Value.Data[i] = 0.05 * float32(i)
	}
	x := tensor.NewUniform(3, 6, 2, rng)
	checkLayerGradients(t, ln, x, 5e-2)
}

func TestSoftmaxRows(t *testing.T) {
	x := tensor.FromSlice(2, 3, []float32{1, 2, 3, 1000, 1000, 1000})
	p := SoftmaxRows(x)
	for r := 0; r < 2; r++ {
		var sum float64
		for _, v := range p.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("prob out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	if !(p.At(0, 2) > p.At(0, 1) && p.At(0, 1) > p.At(0, 0)) {
		t.Fatal("softmax must be monotone in logits")
	}
	// Large-logit row must not produce NaN (stability).
	if math.IsNaN(float64(p.At(1, 0))) {
		t.Fatal("softmax overflowed")
	}
}

func TestSequentialMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mlp := MLP([]int{5, 7, 3}, false, rng)
	x := tensor.NewUniform(4, 5, 1, rng)
	checkLayerGradients(t, mlp, x, 5e-2)
}

func TestMLPStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := MLP([]int{8, 4, 2}, true, rng)
	// Linear, ReLU, Linear, ReLU.
	if len(m.Layers) != 4 {
		t.Fatalf("layer count %d, want 4", len(m.Layers))
	}
	m2 := MLP([]int{8, 4, 2}, false, rng)
	if len(m2.Layers) != 3 {
		t.Fatalf("layer count %d, want 3 (no final activation)", len(m2.Layers))
	}
	n := 0
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	if n != 8*4+4+4*2+2 {
		t.Fatalf("parameter count %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short dims")
		}
	}()
	MLP([]int{3}, false, rng)
}

func TestSetThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := MLP([]int{4, 4, 4}, false, rng)
	m.SetThreads(3)
	for _, l := range m.Layers {
		if lin, ok := l.(*Linear); ok && lin.Threads != 3 {
			t.Fatal("SetThreads did not propagate")
		}
	}
}

func TestCloneForInference(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	m := NewSequential(NewLinear(4, 6, rng), &ReLU{}, NewLayerNorm(6, rng), &GELU{}, NewLinear(6, 2, rng), &Sigmoid{})
	c := m.CloneForInference()
	x := tensor.NewUniform(3, 4, 1, rng)
	if !tensor.AllClose(m.Forward(x), c.Forward(x), 0) {
		t.Fatal("clone output differs")
	}
	// Shared weights: updating the original is visible through the clone.
	lin := m.Layers[0].(*Linear)
	lin.W.Value.Data[0] += 1
	if !tensor.AllClose(m.Forward(x), c.Forward(x), 0) {
		t.Fatal("clone must share parameters")
	}
	// Private caches: interleaved forwards must not corrupt each other.
	x2 := tensor.NewUniform(5, 4, 1, rng)
	want := m.Forward(x)
	c.Forward(x2) // would clobber caches if shared
	if !tensor.AllClose(m.Forward(x), want, 0) {
		t.Fatal("interleaved clone forward corrupted state")
	}
}

func TestCloneForInferenceUnsupportedPanics(t *testing.T) {
	type weird struct{ Layer }
	m := NewSequential(&weird{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.CloneForInference()
}
