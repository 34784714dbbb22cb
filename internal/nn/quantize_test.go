package nn

import (
	"math"
	"math/rand"
	"testing"

	"secemb/internal/tensor"
)

func TestQuantizeRoundTripAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(64, 32, rng)
	q := Quantize(l)
	// Worst-case weight error bounded by half a quantization step.
	for o := 0; o < q.Out; o++ {
		if q.Q.Scale[o] <= 0 {
			t.Fatalf("non-positive scale at %d", o)
		}
	}
	maxStep := 0.0
	for _, s := range q.Q.Scale {
		if float64(s) > maxStep {
			maxStep = float64(s)
		}
	}
	// Row i of the identity reads row i of the dequantized weights back out
	// (a one-hot activation row quantizes exactly).
	eye := tensor.New(q.In, q.In)
	for i := 0; i < q.In; i++ {
		eye.Set(i, i, 1)
	}
	got := q.Forward(eye)
	var worst float64
	for i := 0; i < q.In; i++ {
		for o := 0; o < q.Out; o++ {
			w := float64(got.At(i, o) - q.Bias[o])
			worst = math.Max(worst, math.Abs(w-float64(l.W.Value.At(i, o))))
		}
	}
	if worst > maxStep/2+1e-7 {
		t.Fatalf("quantization error %v exceeds step/2 %v", worst, maxStep/2)
	}
}

func TestQuantForwardCloseToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(128, 64, rng)
	q := Quantize(l)
	x := tensor.NewUniform(8, 128, 1, rng)
	want := l.Forward(x)
	got := q.Forward(x)
	// Relative output error of weight-only int8 is typically <1%.
	if d := tensor.MaxAbsDiff(got, want); d > 0.05*(1+tensor.Norm2(want)/float64(len(want.Data))) {
		t.Fatalf("quantized output off by %v", d)
	}
}

func TestQuantFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(256, 256, rng)
	q := Quantize(l)
	// Packed 16-bit lanes: 2 bytes/weight plus per-channel metadata, ≈2×
	// smaller than float32 (flat int8 would be 4× but ~8× slower — the
	// packing buys one-multiply-per-four-MACs, see tensor/quant.go).
	ratio := float64(l.NumBytes()) / float64(q.NumBytes())
	if ratio < 1.7 || ratio > 2.2 {
		t.Fatalf("compression ratio %.2f, want ≈2x", ratio)
	}
}

func TestQuantizeZeroColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(4, 2, rng)
	for i := 0; i < 4; i++ {
		l.W.Value.Set(i, 1, 0) // dead output channel
	}
	q := Quantize(l)
	x := tensor.NewUniform(1, 4, 1, rng)
	out := q.Forward(x)
	if out.At(0, 1) != l.B.Value.Data[1] {
		t.Fatalf("zero column must yield bias only: %v", out.At(0, 1))
	}
}

func TestQuantizeSequentialEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := MLP([]int{32, 64, 16}, false, rng)
	x := tensor.NewUniform(4, 32, 1, rng)
	want := m.Forward(x)
	qm := QuantizeSequential(m)
	got := qm.Forward(x)
	// End-to-end drift stays small relative to activations.
	var meanAbs float64
	for _, v := range want.Data {
		if f := float64(v); f < 0 {
			meanAbs -= f
		} else {
			meanAbs += f
		}
	}
	meanAbs /= float64(len(want.Data))
	if d := tensor.MaxAbsDiff(got, want); d > 0.1*(1+meanAbs) {
		t.Fatalf("quantized stack off by %v (mean |act| %v)", d, meanAbs)
	}
	if len(qm.Params()) != 0 {
		t.Fatal("quantized stack must expose no trainable params")
	}
}

func TestQuantBackwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	qm := QuantizeSequential(MLP([]int{4, 2}, false, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	qm.Backward(tensor.New(1, 2))
}

func BenchmarkQuantVsFloatForward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(512, 512, rng)
	q := Quantize(l)
	x := tensor.NewUniform(32, 512, 1, rng)
	b.Run("float32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.Forward(x)
		}
	})
	b.Run("int8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Forward(x)
		}
	})
}
