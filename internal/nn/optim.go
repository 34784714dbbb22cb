package nn

import (
	"math"

	"secemb/internal/tensor"
)

// Optimizer updates parameters in place from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay. The DLRM reference trains with plain SGD.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Matrix
}

// Step applies one SGD update to each parameter.
func (o *SGD) Step(params []*Param) {
	lr := float32(o.LR)
	for _, p := range params {
		g := p.Grad
		if o.WeightDecay != 0 {
			tensor.AXPY(float32(o.WeightDecay), p.Value, g)
		}
		if o.Momentum != 0 {
			if o.velocity == nil {
				o.velocity = map[*Param]*tensor.Matrix{}
			}
			v, ok := o.velocity[p]
			if !ok {
				v = tensor.New(g.Rows, g.Cols)
				o.velocity[p] = v
			}
			tensor.ScaleInPlace(v, float32(o.Momentum))
			tensor.AddInPlace(v, g)
			g = v
		}
		tensor.AXPY(-lr, g, p.Value)
	}
}

// Adagrad adapts per-coordinate learning rates by accumulated squared
// gradients — the optimizer Meta's DLRM uses for sparse embedding tables.
type Adagrad struct {
	LR  float64
	Eps float64

	accum map[*Param]*tensor.Matrix
}

// Step applies one Adagrad update.
func (o *Adagrad) Step(params []*Param) {
	if o.accum == nil {
		o.accum = map[*Param]*tensor.Matrix{}
	}
	for _, p := range params {
		acc, ok := o.accum[p]
		if !ok {
			acc = tensor.New(p.Grad.Rows, p.Grad.Cols)
			o.accum[p] = acc
		}
		for i, g := range p.Grad.Data {
			acc.Data[i] += g * g
			p.Value.Data[i] -= float32(o.LR) * g / (float32(math.Sqrt(float64(acc.Data[i]))) + float32(o.Eps))
		}
	}
}

// Adam is the optimizer used for the GPT-2 finetuning experiments.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update.
func (o *Adam) Step(params []*Param) {
	if o.m == nil {
		o.m = map[*Param]*tensor.Matrix{}
		o.v = map[*Param]*tensor.Matrix{}
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Grad.Rows, p.Grad.Cols)
			o.m[p] = m
			o.v[p] = tensor.New(p.Grad.Rows, p.Grad.Cols)
		}
		v := o.v[p]
		for i, g := range p.Grad.Data {
			if o.WeightDecay != 0 {
				g += float32(o.WeightDecay) * p.Value.Data[i]
			}
			m.Data[i] = float32(o.Beta1)*m.Data[i] + float32(1-o.Beta1)*g
			v.Data[i] = float32(o.Beta2)*v.Data[i] + float32(1-o.Beta2)*g*g
			mh := float64(m.Data[i]) / bc1
			vh := float64(v.Data[i]) / bc2
			p.Value.Data[i] -= float32(o.LR * mh / (math.Sqrt(vh) + o.Eps))
		}
	}
}
