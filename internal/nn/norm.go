package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ecofl/internal/tensor"
)

// BatchNorm normalizes each feature over the batch with learned scale and
// shift. In training mode it uses batch statistics and updates running
// averages; in eval mode (Train = false) it uses the running averages.
// Operates on (batch, features) tensors; use after Flatten or Dense.
type BatchNorm struct {
	Dim      int
	Eps      float64
	Momentum float64 // running-average update rate (default 0.1)
	Train    bool

	Gamma, Beta             *Param
	RunningMean, RunningVar []float64
}

// NewBatchNorm creates a BatchNorm layer in training mode.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim: dim, Eps: 1e-5, Momentum: 0.1, Train: true,
		Gamma:       &Param{Name: fmt.Sprintf("bn%d.gamma", dim), Value: tensor.New(dim), Grad: tensor.New(dim)},
		Beta:        &Param{Name: fmt.Sprintf("bn%d.beta", dim), Value: tensor.New(dim), Grad: tensor.New(dim)},
		RunningMean: make([]float64, dim),
		RunningVar:  make([]float64, dim),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

type bnCache struct {
	xhat   *tensor.Tensor
	invStd []float64
}

func (bn *BatchNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	rows, cols := x.Rows(), x.Cols()
	if cols != bn.Dim {
		panic(fmt.Sprintf("nn: BatchNorm(%d) got %d features", bn.Dim, cols))
	}
	mean := make([]float64, cols)
	varr := make([]float64, cols)
	if bn.Train {
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mean[j] += x.Data[i*cols+j]
			}
		}
		for j := range mean {
			mean[j] /= float64(rows)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				d := x.Data[i*cols+j] - mean[j]
				varr[j] += d * d
			}
		}
		for j := range varr {
			varr[j] /= float64(rows)
			bn.RunningMean[j] = (1-bn.Momentum)*bn.RunningMean[j] + bn.Momentum*mean[j]
			bn.RunningVar[j] = (1-bn.Momentum)*bn.RunningVar[j] + bn.Momentum*varr[j]
		}
	} else {
		copy(mean, bn.RunningMean)
		copy(varr, bn.RunningVar)
	}
	invStd := make([]float64, cols)
	for j := range invStd {
		invStd[j] = 1 / math.Sqrt(varr[j]+bn.Eps)
	}
	xhat := tensor.New(rows, cols)
	out := tensor.GetBufUninit(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			h := (x.Data[i*cols+j] - mean[j]) * invStd[j]
			xhat.Data[i*cols+j] = h
			out.Data[i*cols+j] = bn.Gamma.Value.Data[j]*h + bn.Beta.Value.Data[j]
		}
	}
	return out, &bnCache{xhat: xhat, invStd: invStd}
}

func (bn *BatchNorm) Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor {
	cache := c.(*bnCache)
	rows, cols := dy.Rows(), dy.Cols()
	dx := tensor.GetBufUninit(rows, cols)
	n := float64(rows)
	for j := 0; j < cols; j++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < rows; i++ {
			d := dy.Data[i*cols+j]
			sumDy += d
			sumDyXhat += d * cache.xhat.Data[i*cols+j]
		}
		bn.Beta.Grad.Data[j] += sumDy
		bn.Gamma.Grad.Data[j] += sumDyXhat
		g := bn.Gamma.Value.Data[j] * cache.invStd[j]
		if !bn.Train {
			// Eval mode: statistics are constants.
			for i := 0; i < rows; i++ {
				dx.Data[i*cols+j] = dy.Data[i*cols+j] * g
			}
			continue
		}
		for i := 0; i < rows; i++ {
			dx.Data[i*cols+j] = g / n *
				(n*dy.Data[i*cols+j] - sumDy - cache.xhat.Data[i*cols+j]*sumDyXhat)
		}
	}
	return dx
}

func (bn *BatchNorm) Params() []*Param     { return []*Param{bn.Gamma, bn.Beta} }
func (bn *BatchNorm) OutShape([]int) []int { return []int{bn.Dim} }

func (bn *BatchNorm) Clone() Layer {
	c := *bn
	c.Gamma, c.Beta = bn.Gamma.view(), bn.Beta.view()
	c.RunningMean, c.RunningVar = slices.Clone(bn.RunningMean), slices.Clone(bn.RunningVar)
	return &c
}

// ---------------------------------------------------------------- Dropout

// Dropout zeroes activations with probability P during training (inverted
// dropout: survivors are scaled by 1/(1−P)); identity in eval mode.
type Dropout struct {
	P     float64
	Train bool
	Rng   *rand.Rand
}

// NewDropout creates a Dropout layer in training mode with its own
// deterministic RNG stream.
func NewDropout(p float64, seed int64) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{P: p, Train: true, Rng: rand.New(rand.NewSource(seed))}
}

func (d *Dropout) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	if !d.Train || d.P == 0 {
		return x, nil
	}
	mask := tensor.New(x.Shape...)
	out := tensor.GetBuf(x.Shape...)
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.Rng.Float64() >= d.P {
			mask.Data[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out, mask
}

func (d *Dropout) Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor {
	if c == nil {
		return dy
	}
	mask := c.(*tensor.Tensor)
	return pooledCopy(dy).Hadamard(mask)
}

func (d *Dropout) Params() []*Param        { return nil }
func (d *Dropout) OutShape(in []int) []int { return in }

func (d *Dropout) Clone() Layer {
	return &Dropout{P: d.P, Train: d.Train, Rng: rand.New(rand.NewSource(d.Rng.Int63()))}
}

// ---------------------------------------------------------------- Residual

// Residual wraps an inner stack with a skip connection: y = x + f(x).
// The inner stack must preserve shape.
type Residual struct {
	Inner []Layer
}

func (r *Residual) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	caches := make([]Cache, len(r.Inner))
	y := x
	for i, l := range r.Inner {
		y, caches[i] = l.Forward(y)
	}
	if y.Len() != x.Len() {
		panic(fmt.Sprintf("nn: Residual inner stack changed size %v → %v", x.Shape, y.Shape))
	}
	return pooledCopy(y).Add(x), caches
}

func (r *Residual) Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor {
	caches := c.([]Cache)
	d := dy
	for i := len(r.Inner) - 1; i >= 0; i-- {
		d = r.Inner[i].Backward(caches[i], d)
	}
	return pooledCopy(d).Add(dy)
}

func (r *Residual) Params() []*Param {
	var ps []*Param
	for _, l := range r.Inner {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (r *Residual) OutShape(in []int) []int { return (&Network{Layers: r.Inner}).OutShape(in) }

func (r *Residual) Clone() Layer {
	inner := make([]Layer, len(r.Inner))
	for i, l := range r.Inner {
		inner[i] = l.Clone()
	}
	return &Residual{Inner: inner}
}

// SetTrainMode toggles training behaviour (BatchNorm statistics, Dropout)
// on every layer of the network that distinguishes the two modes.
func (n *Network) SetTrainMode(train bool) {
	var walk func(layers []Layer)
	walk = func(layers []Layer) {
		for _, l := range layers {
			switch t := l.(type) {
			case *BatchNorm:
				t.Train = train
			case *Dropout:
				t.Train = train
			case *Residual:
				walk(t.Inner)
			}
		}
	}
	walk(n.Layers)
}
