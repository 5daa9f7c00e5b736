// Package nn is a small neural-network substrate with explicit forward
// caches, built for pipeline-parallel training: a stage can keep several
// micro-batch activations in flight and run their backward passes in any
// order, which is exactly the freedom 1F1B scheduling exploits.
//
// Gradients accumulate across Backward calls until ZeroGrads, matching the
// gradient-accumulation semantics of a synchronous pipeline sync-round.
//
// Buffer ownership. Layers draw their outputs from the tensor pool
// (tensor.GetBufUninit) and never return them: what Forward and Backward
// hand back belongs to the caller, because only the caller knows when it is
// dead — a 1F1B stage keeps several micro-batches' activations alive at
// once. Network.Forward and Network.Backward pass that contract through
// unchanged. The single-device step (TrainBatch, TrainBatchWith) and the
// forward-only Loss and Accuracy do know: they made every activation and
// gradient of the step themselves, so they return each one to the pool the
// moment nothing reads it any more (see TrainBatchWith), and a warm training
// step allocates nothing. The scratch lives in the pool between steps, not on
// the Network: a federation holds one Network per client and trains a few at
// a time, and a step's intermediates pinned on each would outweigh the
// models.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ecofl/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Cache carries whatever a layer's Forward needs to remember for Backward.
type Cache interface{}

// Layer is a differentiable module. Backward must accumulate (+=) parameter
// gradients so that micro-batch gradients sum naturally.
type Layer interface {
	Name() string
	// Forward maps a (batch × in) tensor to (batch × out) plus a cache.
	Forward(x *tensor.Tensor) (*tensor.Tensor, Cache)
	// Backward consumes the cache from the matching Forward call and the
	// upstream gradient, accumulates parameter gradients, and returns the
	// gradient with respect to the input.
	Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// Clone returns a deep copy (independent parameters and gradients).
	Clone() Layer
}

// ---------------------------------------------------------------- Dense

// Dense is a fully connected layer: y = xW + b.
type Dense struct {
	In, Out int
	W       *Param
	B       *Param
}

// NewDense creates a Dense layer with Kaiming-style initialization.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	std := math.Sqrt(2.0 / float64(in))
	return &Dense{
		In:  in,
		Out: out,
		W:   &Param{Name: fmt.Sprintf("dense%dx%d.W", in, out), Value: tensor.Randn(rng, std, in, out), Grad: tensor.New(in, out)},
		B:   &Param{Name: fmt.Sprintf("dense%dx%d.b", in, out), Value: tensor.New(out), Grad: tensor.New(out)},
	}
}

func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

func (d *Dense) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	y := tensor.MatMulInto(tensor.GetBufUninit(x.Rows(), d.Out), x, d.W.Value)
	rows := y.Rows()
	bias := d.B.Value.Data
	for i := 0; i < rows; i++ {
		yr := y.RowView(i)
		for j := range yr {
			yr[j] += bias[j]
		}
	}
	return y, x
}

func (d *Dense) Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor {
	x := c.(*tensor.Tensor)
	dw := tensor.MatMulATInto(tensor.GetBufUninit(d.In, d.Out), x, dy)
	d.W.Grad.Add(dw)
	tensor.PutBuf(dw)
	rows := dy.Rows()
	bg := d.B.Grad.Data
	for i := 0; i < rows; i++ {
		dr := dy.RowView(i)
		for j := range dr {
			bg[j] += dr[j]
		}
	}
	return tensor.MatMulBTInto(tensor.GetBufUninit(dy.Rows(), d.In), dy, d.W.Value)
}

func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func (d *Dense) Clone() Layer {
	return &Dense{
		In:  d.In,
		Out: d.Out,
		W:   &Param{Name: d.W.Name, Value: d.W.Value.Clone(), Grad: d.W.Grad.Clone()},
		B:   &Param{Name: d.B.Name, Value: d.B.Value.Clone(), Grad: d.B.Grad.Clone()},
	}
}

// ---------------------------------------------------------------- ReLU

// ReLU applies max(0, x) element-wise.
type ReLU struct{}

func (ReLU) Name() string { return "ReLU" }

func (ReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	y := pooledCopy(x)
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = 0
		}
	}
	return y, x
}

func (ReLU) Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor {
	x := c.(*tensor.Tensor)
	dx := pooledCopy(dy)
	for i, v := range x.Data {
		if v <= 0 {
			dx.Data[i] = 0
		}
	}
	return dx
}

func (ReLU) Params() []*Param { return nil }
func (ReLU) Clone() Layer     { return ReLU{} }

// ---------------------------------------------------------------- Tanh

// Tanh applies tanh element-wise.
type Tanh struct{}

func (Tanh) Name() string { return "Tanh" }

func (Tanh) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	y := pooledCopy(x)
	for i, v := range y.Data {
		y.Data[i] = math.Tanh(v)
	}
	return y, y
}

func (Tanh) Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor {
	y := c.(*tensor.Tensor)
	dx := pooledCopy(dy)
	for i, v := range y.Data {
		dx.Data[i] *= 1 - v*v
	}
	return dx
}

func (Tanh) Params() []*Param { return nil }
func (Tanh) Clone() Layer     { return Tanh{} }

// ---------------------------------------------------------------- Loss

// SoftmaxCrossEntropy computes mean cross-entropy over a batch of logits and
// integer labels, returning the loss and the gradient w.r.t. the logits (a
// pooled tensor the caller owns, like a layer's output).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	rows, cols := logits.Rows(), logits.Cols()
	if rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logit rows vs %d labels", rows, len(labels)))
	}
	grad := tensor.GetBufUninit(rows, cols) // every element is written below
	var loss float64
	for i := 0; i < rows; i++ {
		row := logits.RowView(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		g := grad.RowView(i)
		for j, v := range row {
			e := math.Exp(v - maxv)
			g[j] = e
			sum += e
		}
		for j := range g {
			g[j] /= sum
		}
		loss += -math.Log(math.Max(g[labels[i]], 1e-300))
		g[labels[i]] -= 1
	}
	n := float64(rows)
	grad.Scale(1 / n)
	return loss / n, grad
}

// ---------------------------------------------------------------- Network

// Network is a sequential stack of layers. It is not safe for concurrent
// use: beside the weights, it keeps the parameter list and the per-layer
// slice headers of the step in progress.
type Network struct {
	Layers []Layer

	// params caches Params(), valid while len(Layers) == paramsFor. A
	// training step asks for the list three times; rebuilding it costs eight
	// allocations on a two-layer MLP.
	params    []*Param
	paramsFor int
	// acts[i] and caches[i] are layer i's output and forward cache during a
	// TrainBatchWith, Loss or Accuracy call; only the slice headers outlive
	// the call.
	acts   []*tensor.Tensor
	caches []Cache
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{Layers: layers}
	n.Params() // fill the cache now, so that later readers only read
	return n
}

// NewMLP builds Dense+ReLU stacks ending in a linear classifier head:
// sizes = [in, h1, ..., hk, classes].
func NewMLP(rng *rand.Rand, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least [in, out]")
	}
	var layers []Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewDense(rng, sizes[i], sizes[i+1]))
		if i+2 < len(sizes) {
			layers = append(layers, ReLU{})
		}
	}
	return NewNetwork(layers...)
}

// Forward runs all layers, returning the output and the per-layer caches.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, []Cache) {
	caches := make([]Cache, len(n.Layers))
	for i, l := range n.Layers {
		x, caches[i] = l.Forward(x)
	}
	return x, caches
}

// Backward propagates dy through all layers in reverse, accumulating grads.
func (n *Network) Backward(caches []Cache, dy *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(caches[i], dy)
	}
	return dy
}

// Params returns all trainable parameters in layer order. The list is built
// once and rebuilt when the number of layers changes; callers must not
// modify it. (Replacing a layer in place, which nothing does, would need a
// new Network.)
func (n *Network) Params() []*Param {
	if n.paramsFor != len(n.Layers) {
		var ps []*Param
		for _, l := range n.Layers {
			ps = append(ps, l.Params()...)
		}
		n.params, n.paramsFor = ps[:len(ps):len(ps)], len(n.Layers)
	}
	return n.params
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.Clone()
	}
	return NewNetwork(layers...)
}

// FlatWeights returns a copy of all parameter values as one flat vector.
func (n *Network) FlatWeights() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetFlatWeights installs a flat vector previously produced by FlatWeights.
func (n *Network) SetFlatWeights(w []float64) {
	off := 0
	for _, p := range n.Params() {
		k := p.Value.Len()
		if off+k > len(w) {
			panic(fmt.Sprintf("nn: SetFlatWeights vector too short: %d < %d", len(w), off+k))
		}
		copy(p.Value.Data, w[off:off+k])
		off += k
	}
	if off != len(w) {
		panic(fmt.Sprintf("nn: SetFlatWeights vector too long: %d > %d", len(w), off))
	}
}

// forwardKept runs all layers like Forward, but keeps every layer's output
// and cache in n.acts and n.caches (reused slice headers) so the caller can
// release them: pair it with a backward sweep or releaseActs.
func (n *Network) forwardKept(x *tensor.Tensor) *tensor.Tensor {
	if cap(n.acts) < len(n.Layers) {
		n.acts = make([]*tensor.Tensor, len(n.Layers))
		n.caches = make([]Cache, len(n.Layers))
	}
	n.acts, n.caches = n.acts[:len(n.Layers)], n.caches[:len(n.Layers)]
	for i, l := range n.Layers {
		x, n.caches[i] = l.Forward(x)
		n.acts[i] = x
	}
	return x
}

// releaseAct returns layer i's kept output to the pool, unless it is a view
// of the layer's input — then the storage belongs to an earlier activation,
// which returns it in its own turn, or to the caller's x, which never goes
// back. The layers after i must be done with it.
func (n *Network) releaseAct(i int, x *tensor.Tensor) {
	in := x
	if i > 0 {
		in = n.acts[i-1]
	}
	if !tensor.SharesStorage(n.acts[i], in) {
		tensor.PutBuf(n.acts[i])
	}
	n.acts[i], n.caches[i] = nil, nil
}

// releaseActs ends a forward-only pass begun by forwardKept on x.
func (n *Network) releaseActs(x *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		n.releaseAct(i, x)
	}
}

// Loss computes the softmax cross-entropy of the network on (x, labels).
func (n *Network) Loss(x *tensor.Tensor, labels []int) float64 {
	loss, dy := SoftmaxCrossEntropy(n.forwardKept(x), labels)
	tensor.PutBuf(dy)
	n.releaseActs(x)
	return loss
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func (n *Network) Accuracy(x *tensor.Tensor, labels []int) float64 {
	logits := n.forwardKept(x)
	correct := 0
	for i, lab := range labels {
		if logits.ArgmaxRow(i) == lab {
			correct++
		}
	}
	n.releaseActs(x)
	return float64(correct) / float64(len(labels))
}

// ---------------------------------------------------------------- SGD

// SGD is stochastic gradient descent with optional momentum, weight decay,
// and a FedProx proximal term µ‖w − w_global‖²/2 (set Mu > 0 and Global).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Mu is the FedProx proximal coefficient; Global is the flat reference
	// weight vector the proximal term pulls toward. Both optional.
	Mu     float64
	Global []float64

	velocity map[*Param]*tensor.Tensor
}

// Step applies one update to the given parameters from their gradients.
func (o *SGD) Step(params []*Param) {
	off := 0
	for _, p := range params {
		scratch := tensor.GetBufUninit(p.Grad.Shape...)
		scratch.CopyFrom(p.Grad)
		g := scratch
		if o.WeightDecay != 0 {
			g.AddScaled(o.WeightDecay, p.Value)
		}
		if o.Mu != 0 && o.Global != nil {
			// ∇[µ/2‖w−w_g‖²] = µ(w − w_g)
			for i := range g.Data {
				g.Data[i] += o.Mu * (p.Value.Data[i] - o.Global[off+i])
			}
		}
		off += p.Value.Len()
		if o.Momentum != 0 {
			v, ok := o.velocity[p]
			if !ok {
				if o.velocity == nil { // only an optimizer with momentum pays for the map
					o.velocity = make(map[*Param]*tensor.Tensor)
				}
				v = tensor.New(p.Value.Shape...)
				o.velocity[p] = v
			}
			v.Scale(o.Momentum).Add(g)
			g = v
		}
		p.Value.AddScaled(-o.LR, g)
		tensor.PutBuf(scratch)
	}
}

// TrainBatch runs one forward/backward/update on a single mini-batch and
// returns the loss before the update.
func (n *Network) TrainBatch(x *tensor.Tensor, labels []int, opt *SGD) float64 {
	return n.TrainBatchWith(x, labels, opt)
}

// TrainBatchWith is TrainBatch with any optimizer. The step owns every
// tensor it creates and returns each to the pool as soon as it is dead:
// after layer i's Backward, the gradient that came into it and layer i's own
// output (layers i+1… have run their Backward, and layer i's cache is
// spent); at the end, the gradient with respect to x. Two things never go
// back: the caller's x, and a tensor whose storage another still-live tensor
// shares — a Flatten's output is a view of its input and its input gradient
// a view of the gradient it was given, an eval-mode Dropout returns its
// arguments themselves — which is returned once, by the last tensor of the
// chain to die.
func (n *Network) TrainBatchWith(x *tensor.Tensor, labels []int, opt Optimizer) float64 {
	n.ZeroGrads()
	loss, dy := SoftmaxCrossEntropy(n.forwardKept(x), labels)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dx := n.Layers[i].Backward(n.caches[i], dy)
		if !tensor.SharesStorage(dy, dx) {
			tensor.PutBuf(dy)
		}
		n.releaseAct(i, x)
		dy = dx
	}
	tensor.PutBuf(dy)
	opt.Step(n.Params())
	return loss
}
