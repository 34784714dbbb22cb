package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// weightAt decodes the quantized weight at depth k of output column o —
// the value the kernel effectively multiplies by.
func (q *QuantMat) weightAt(k, o int) float32 {
	word := q.Packed[o*q.kw+k/laneK]
	lane := (word >> (48 - 16*(k%laneK))) & 0xFFFF
	return float32(int32(lane)-wOff) * q.Scale[o]
}

// actAt decodes the quantized activation at row i, depth k — the value
// the kernel effectively multiplies by.
func (qa *QuantActs) actAt(i, k int) float32 {
	word := qa.Packed[i*qa.kw+k/laneK]
	lane := (word >> (16 * (k % laneK))) & 0xFFFF
	return float32(int32(lane)-actOff) * qa.RowScale[i]
}

// refQuantProduct computes what MatMulQuantInto should produce, from the
// decoded quantized operands with plain float arithmetic: the kernel's
// packed SWAR evaluation must match this exactly — quantization decides
// the precision, the packing must decide nothing.
func refQuantProduct(x *Matrix, w *QuantMat, qa *QuantActs, bias []float32) *Matrix {
	out := New(x.Rows, w.Out)
	for i := 0; i < x.Rows; i++ {
		for o := 0; o < w.Out; o++ {
			var sum float64
			for k := 0; k < x.Cols; k++ {
				sum += float64(qa.actAt(i, k)) * float64(w.weightAt(k, o))
			}
			if bias != nil {
				sum += float64(bias[o])
			}
			out.Data[i*w.Out+o] = float32(sum)
		}
	}
	return out
}

func randMatrix(rows, cols int, scale float32, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return m
}

func TestMatMulQuantMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ m, k, n int }{
		{1, 8, 2}, {3, 5, 7}, {4, 64, 16}, {64, 1024, 512}, {2, 1023, 9},
	} {
		x := randMatrix(shape.m, shape.k, 1, rng)
		w := randMatrix(shape.k, shape.n, 0.1, rng)
		bias := make([]float32, shape.n)
		for i := range bias {
			bias[i] = rng.Float32() - 0.5
		}
		q := QuantizeMat(w)
		var qa QuantActs
		qa.Quantize(x)
		got := New(shape.m, shape.n)
		MatMulQuantInto(got, &qa, q, bias, 1)

		// Against the float product: quantization error only, bounded by
		// the 6-bit activation step accumulated over k.
		want := MatMul(x, w, 1)
		for i := range bias {
			for r := 0; r < shape.m; r++ {
				want.Data[r*shape.n+i] += bias[i]
			}
		}
		tol := 0.008 * math.Sqrt(float64(shape.k)) // ~εa·σw·√k margin
		if tol < 0.02 {
			tol = 0.02
		}
		if diff := MaxAbsDiff(got, want); diff > tol {
			t.Errorf("%dx%dx%d: quant vs float diff %v > %v", shape.m, shape.k, shape.n, diff, tol)
		}

		// Against the decoded-operand reference: near-exact (float32
		// rounding of identical quantities only).
		ref := refQuantProduct(x, q, &qa, bias)
		if diff := MaxAbsDiff(got, ref); float64(diff) > 1e-3 {
			t.Errorf("%dx%dx%d: kernel vs decoded reference diff %v", shape.m, shape.k, shape.n, diff)
		}
	}
}

func TestQuantEdgeCases(t *testing.T) {
	// All-zero rows and columns must stay exact zeros, not NaNs.
	x := New(2, 8)
	w := New(8, 3)
	q := QuantizeMat(w)
	var qa QuantActs
	qa.Quantize(x)
	out := New(2, 3)
	MatMulQuantInto(out, &qa, q, nil, 1)
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("zero·zero gave %v at %d", v, i)
		}
	}
	// Extreme dynamic range within a column: small weights are crushed to
	// zero by the shared scale — the documented failure mode the accuracy
	// gate exists for — but nothing overflows or corrupts neighbors.
	w2 := New(8, 2)
	w2.Data[0*2+0] = 1e6
	for k := 1; k < 8; k++ {
		w2.Data[k*2+0] = 1e-6
		w2.Data[k*2+1] = 0.5
	}
	q2 := QuantizeMat(w2)
	x2 := New(1, 8)
	for k := 0; k < 8; k++ {
		x2.Data[k] = 1
	}
	qa.Quantize(x2)
	out2 := New(1, 2)
	MatMulQuantInto(out2, &qa, q2, nil, 1)
	if math.Abs(float64(out2.Data[0])-1e6) > 1e6*0.02 {
		t.Fatalf("outlier column: got %v want ~1e6", out2.Data[0])
	}
	if math.Abs(float64(out2.Data[1])-3.5) > 3.5*0.05 {
		t.Fatalf("neighbor column corrupted: got %v want ~3.5", out2.Data[1])
	}
}

func TestQuantActsSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(16, 96, 1, rng)
	w := randMatrix(96, 24, 0.2, rng)
	q := QuantizeMat(w)
	var qa QuantActs
	out := New(16, 24)
	qa.Quantize(x)
	MatMulQuantInto(out, &qa, q, nil, 1)
	allocs := testing.AllocsPerRun(50, func() {
		qa.Quantize(x)
		MatMulQuantInto(out, &qa, q, nil, 1)
	})
	if allocs != 0 {
		t.Fatalf("quantized forward allocates %.0f objects per call after warmup", allocs)
	}
}

func TestMatMulQuantParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randMatrix(33, 130, 1, rng)
	w := randMatrix(130, 17, 0.2, rng)
	q := QuantizeMat(w)
	var qa QuantActs
	qa.Quantize(x)
	serial, parallel := New(33, 17), New(33, 17)
	MatMulQuantInto(serial, &qa, q, nil, 1)
	MatMulQuantInto(parallel, &qa, q, nil, 8)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("parallel result differs at %d: %v vs %v", i, parallel.Data[i], serial.Data[i])
		}
	}
}

func BenchmarkMatMulQuant256(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randMatrix(256, 256, 1, rng)
	w := randMatrix(256, 256, 0.1, rng)
	q := QuantizeMat(w)
	var qa QuantActs
	out := New(256, 256)
	qa.Quantize(x) // size the scratch before the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qa.Quantize(x)
		MatMulQuantInto(out, &qa, q, nil, 0)
	}
}
