package nn

import (
	"math"

	"ecofl/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba 2015) with optional weight decay
// (AdamW-style, decoupled) and the same FedProx proximal hook as SGD.
type Adam struct {
	LR          float64
	Beta1       float64 // default 0.9
	Beta2       float64 // default 0.999
	Eps         float64 // default 1e-8
	WeightDecay float64
	// Mu / Global: FedProx proximal term, as in SGD.
	Mu     float64
	Global []float64

	step int
	m, v map[*Param]*tensor.Tensor
}

// Step applies one Adam update to the parameters from their gradients.
func (o *Adam) Step(params []*Param) {
	if o.Beta1 == 0 {
		o.Beta1 = 0.9
	}
	if o.Beta2 == 0 {
		o.Beta2 = 0.999
	}
	if o.Eps == 0 {
		o.Eps = 1e-8
	}
	if o.m == nil {
		o.m = make(map[*Param]*tensor.Tensor)
		o.v = make(map[*Param]*tensor.Tensor)
	}
	o.step++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	off := 0
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape...)
			o.m[p] = m
			o.v[p] = tensor.New(p.Value.Shape...)
		}
		v := o.v[p]
		for i, g := range p.Grad.Data {
			if o.Mu != 0 && o.Global != nil {
				g += o.Mu * (p.Value.Data[i] - o.Global[off+i])
			}
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.Value.Data[i] -= o.LR * (mhat/(math.Sqrt(vhat)+o.Eps) + o.WeightDecay*p.Value.Data[i])
		}
		off += p.Value.Len()
	}
}

// Optimizer abstracts SGD and Adam for training loops.
type Optimizer interface {
	Step(params []*Param)
}

var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*Adam)(nil)
)

// ---------------------------------------------------------------- schedules

// LRSchedule maps a step index to a learning rate.
type LRSchedule func(step int) float64

// ConstantLR returns lr at every step.
func ConstantLR(lr float64) LRSchedule { return func(int) float64 { return lr } }

// StepDecay multiplies the rate by factor every interval steps.
func StepDecay(lr, factor float64, interval int) LRSchedule {
	return func(step int) float64 {
		return lr * math.Pow(factor, float64(step/interval))
	}
}

// CosineDecay anneals from lr to floor over horizon steps, then holds floor.
func CosineDecay(lr, floor float64, horizon int) LRSchedule {
	return func(step int) float64 {
		if step >= horizon {
			return floor
		}
		t := float64(step) / float64(horizon)
		return floor + (lr-floor)*0.5*(1+math.Cos(math.Pi*t))
	}
}
