package nn

import (
	"math/rand"

	"secemb/internal/tensor"
)

// Linear is a fully-connected layer: y = x·W + b with W of shape in×out.
//
// Threads controls the worker count of the underlying matmul (0 = all
// CPUs); the paper's profiling sweeps latency across thread counts, so the
// embedding generators expose this knob all the way down.
type Linear struct {
	In, Out int
	W, B    *Param
	Threads int

	// Inference marks the layer forward-only: Forward stops retaining its
	// input for Backward, so serving replicas no longer pin the last batch
	// of every layer between requests. CloneForInference sets it; Backward
	// on an inference layer is unsupported.
	Inference bool

	lastX *tensor.Matrix // cached input for Backward (training mode only)
}

// NewLinear builds a Linear layer with Xavier-initialized weights and zero
// bias, matching the DLRM reference MLP initialization.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		In:  in,
		Out: out,
		W:   NewParam("W", tensor.NewXavier(in, out, rng)),
		B:   NewParam("b", tensor.New(1, out)),
	}
}

// Forward computes x·W + b for a batch of rows.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	shapeCheck("Linear", x, l.In)
	if l.Inference {
		l.lastX = nil
	} else {
		l.lastX = x
	}
	y := tensor.MatMul(x, l.W.Value, l.Threads)
	tensor.AddRowVec(y, l.B.Value.Data)
	return y
}

// ForwardInto computes x·W + b into dst (x.Rows×Out), reusing dst's
// storage — the allocation-free workspace path. It never retains x;
// Backward after ForwardInto is unsupported.
func (l *Linear) ForwardInto(dst, x *tensor.Matrix) {
	shapeCheck("Linear", x, l.In)
	tensor.MatMulInto(dst, x, l.W.Value, l.Threads)
	tensor.AddRowVec(dst, l.B.Value.Data)
}

// OutCols reports the layer's output width for workspace sizing.
func (l *Linear) OutCols() int { return l.Out }

// Backward accumulates dW = xᵀ·dy and db = Σrows(dy), and returns
// dx = dy·Wᵀ.
func (l *Linear) Backward(grad *tensor.Matrix) *tensor.Matrix {
	shapeCheck("Linear.Backward", grad, l.Out)
	tensor.AddInPlace(l.W.Grad, tensor.MatMulTransA(l.lastX, grad, l.Threads))
	bg := tensor.ColSums(grad)
	for i, v := range bg {
		l.B.Grad.Data[i] += v
	}
	return tensor.MatMulTransB(grad, l.W.Value, l.Threads)
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// NumBytes returns the parameter footprint in bytes.
func (l *Linear) NumBytes() int64 {
	return l.W.Value.NumBytes() + l.B.Value.NumBytes()
}
