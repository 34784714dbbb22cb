package nn

import (
	"fmt"

	"secemb/internal/tensor"
)

// Int8 weight quantization: the paper motivates CPU LLM inference with
// "techniques such as quantization and SIMD vector units" (§II-A). A
// QuantLinear holds 7-bit per-output-channel weights in tensor.QuantMat
// and quantizes activations per row to 6 bits on the fly (see
// internal/tensor/quant.go for the scheme). The product runs on an AVX2
// byte kernel where the CPU has one and on the portable packed SWAR
// kernel elsewhere, with bit-identical results; the SWAR kernel alone is
// ~4× faster than the float32 kernel on scalar CPUs. Quantized inference
// has the same deterministic control and data flow as the float path —
// every lane is computed for every input regardless of values — so the
// side-channel argument is unchanged.

// QuantLinear is an inference-only, quantized fully-connected layer.
type QuantLinear struct {
	In, Out int
	// Q is the packed quantized weight matrix (shared, read-only after
	// construction — inference clones alias it).
	Q    *tensor.QuantMat
	Bias []float32
	// Threads is the matmul worker count (0 = tuned/all CPUs); per-clone,
	// like Linear.Threads.
	Threads int
}

// Quantize converts a trained Linear layer to the packed quantized form
// with symmetric per-output-channel scales.
func Quantize(l *Linear) *QuantLinear {
	return &QuantLinear{
		In:      l.In,
		Out:     l.Out,
		Q:       tensor.QuantizeMat(l.W.Value),
		Bias:    append([]float32(nil), l.B.Value.Data...),
		Threads: l.Threads,
	}
}

// Forward computes x·Ŵ + b with dequantization folded into the epilogue.
func (q *QuantLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, q.Out)
	q.ForwardInto(out, x)
	return out
}

// OutCols reports the layer's output width for workspace sizing.
func (q *QuantLinear) OutCols() int { return q.Out }

// ForwardInto computes x·Ŵ + b into dst (x.Rows×Out). This compatibility
// path quantizes x into a stack-local scratch each call; the hot serving
// path is ForwardIntoQuant with a reusable Workspace scratch.
func (q *QuantLinear) ForwardInto(dst, x *tensor.Matrix) {
	var qa tensor.QuantActs
	q.ForwardIntoQuant(dst, x, &qa)
}

// ForwardIntoQuant computes x·Ŵ + b into dst using qa as the activation
// quantization scratch — the allocation-free workspace path. qa's contents
// are replaced.
func (q *QuantLinear) ForwardIntoQuant(dst, x *tensor.Matrix, qa *tensor.QuantActs) {
	shapeCheck("QuantLinear", x, q.In)
	if dst.Rows != x.Rows || dst.Cols != q.Out {
		panic(fmt.Sprintf("nn: QuantLinear.ForwardInto dst %dx%d, want %dx%d",
			dst.Rows, dst.Cols, x.Rows, q.Out))
	}
	qa.Quantize(x)
	tensor.MatMulQuantInto(dst, qa, q.Q, q.Bias, q.Threads)
}

// NumBytes is the quantized footprint: packed 16-bit weight lanes plus
// per-channel scale/offset-sum and the float bias — about half the float32
// layer. Where the AVX2 kernel serves, its byte copy of the weights adds
// half the packed lanes again (tensor.QuantMat.NumBytes).
func (q *QuantLinear) NumBytes() int64 {
	return q.Q.NumBytes() + int64(len(q.Bias))*4
}

// QuantizeSequential converts every Linear in a trained inference stack,
// leaving activations and norms as-is. Returns a Sequential of
// QuantLinear/activation layers usable wherever the float stack was.
func QuantizeSequential(s *Sequential) *Sequential {
	clone := s.CloneForInference()
	out := &Sequential{Layers: make([]Layer, len(s.Layers))}
	for i, l := range s.Layers {
		if lin, ok := l.(*Linear); ok {
			out.Layers[i] = &quantLayer{QuantLinear: Quantize(lin)}
			continue
		}
		out.Layers[i] = clone.Layers[i]
	}
	return out
}

// quantLayer adapts QuantLinear to the Layer interface (inference only).
type quantLayer struct{ *QuantLinear }

func (q *quantLayer) Forward(x *tensor.Matrix) *tensor.Matrix { return q.QuantLinear.Forward(x) }
func (q *quantLayer) Backward(*tensor.Matrix) *tensor.Matrix {
	panic("nn: quantized layers are inference-only")
}
func (q *quantLayer) Params() []*Param { return nil }
