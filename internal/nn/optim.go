package nn

import (
	"math"

	"secemb/internal/tensor"
)

// Optimizer updates parameters in place from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
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
