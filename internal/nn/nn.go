// Package nn implements the neural-network layers, losses and optimizers
// that the paper's models are assembled from: fully-connected stacks for
// DHE decoders and DLRM MLPs, layer normalization and activations for the
// transformer, and the optimizers used to train/finetune them.
//
// The package provides manual layer-by-layer backpropagation (each Layer
// caches what its Backward needs during Forward) rather than a tape-based
// autograd: the models in this repository are static feed-forward graphs,
// and explicit backprop keeps every memory access pattern auditable — which
// is the point of the paper. Forward passes use only deterministic,
// input-shape-dependent control flow (see internal/oblivious for the
// branchless activation kernels).
package nn

import (
	"fmt"

	"secemb/internal/tensor"
)

// Param is one trainable parameter tensor together with its gradient
// accumulator. Optimizers mutate Value in place using Grad.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam allocates a parameter wrapping value with a zeroed gradient.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module operating on row-batched inputs
// (one example per row).
//
// Forward must cache whatever Backward needs; Backward consumes the
// gradient of the loss w.r.t. the layer output and returns the gradient
// w.r.t. the layer input, accumulating parameter gradients as a side
// effect. Layers are not safe for concurrent Forward calls on the same
// instance during training; inference-only use of pure layers is safe.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// ZeroGrads clears gradients across layers.
func ZeroGrads(layers ...Layer) {
	for _, l := range layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

func shapeCheck(op string, got *tensor.Matrix, wantCols int) {
	if got.Cols != wantCols {
		panic(fmt.Sprintf("nn: %s expected %d input columns, got %dx%d", op, wantCols, got.Rows, got.Cols))
	}
}
