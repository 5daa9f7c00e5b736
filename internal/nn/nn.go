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
// dead. Network.Forward and Network.Backward pass that contract through
// unchanged, and return nothing to the pool.
//
// A caller that wants the tensors back runs the pass through a Pass record
// instead: ForwardPass keeps every layer's output and cache in it,
// BackwardPass — or Release, for a forward-only pass — returns each tensor
// the moment nothing reads it any more (the rule is Pass.release, and it is
// written nowhere else). A caller may hold several records at once, one per
// forward pass still waiting for its backward: a 1F1B pipeline stage holds
// one per micro-batch in flight, the single-device step (TrainBatch, Loss,
// Accuracy) one, on the Network. Either way a warm step allocates nothing,
// and the scratch lives in the pool between steps, not on the Network: a
// federation holds one Network per client and trains a few at a time, and a
// step's intermediates pinned on each would outweigh the models.
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

func (d *Dense) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	y := tensor.MatMulInto(tensor.GetBufUninit(x.Rows(), d.Out), x, d.W.Value)
	for i := 0; i < y.Rows(); i++ {
		row := tensor.Tensor{Data: y.RowView(i)}
		row.Add(d.B.Value)
	}
	return y, x
}

func (d *Dense) Backward(c Cache, dy *tensor.Tensor) *tensor.Tensor {
	d.paramGrads(c, dy)
	return tensor.MatMulBTInto(tensor.GetBufUninit(dy.Rows(), d.In), dy, d.W.Value)
}

// paramGrads is Backward without the input gradient: it accumulates dW and
// db and nothing else.
func (d *Dense) paramGrads(c Cache, dy *tensor.Tensor) {
	x := c.(*tensor.Tensor)
	dw := tensor.MatMulATInto(tensor.GetBufUninit(d.In, d.Out), x, dy)
	d.W.Grad.Add(dw)
	tensor.PutBuf(dw)
	for i := 0; i < dy.Rows(); i++ {
		row := tensor.Tensor{Data: dy.RowView(i)}
		d.B.Grad.Add(&row)
	}
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
// use: beside the weights, it keeps the parameter list and the record of the
// step in progress.
type Network struct {
	Layers []Layer

	// params caches Params(), valid while len(Layers) == paramsFor. A
	// training step asks for the list three times; rebuilding it costs eight
	// allocations on a two-layer MLP. lowest, cached with it, is the index of
	// the lowest layer with parameters (len(Layers) when none has any).
	params    []*Param
	paramsFor int
	lowest    int
	// pass records the forward pass of a TrainBatch, Loss or Accuracy
	// call; only its slice headers outlive the call.
	pass Pass
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
		n.lowest = len(n.Layers)
		for i, l := range n.Layers {
			lp := l.Params()
			if len(lp) > 0 && n.lowest == len(n.Layers) {
				n.lowest = i
			}
			ps = append(ps, lp...)
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

// Pass is the record of one forward pass through a Network: every layer's
// output and cache, kept until the matching BackwardPass (or Release) has
// returned each to the tensor pool. The zero value is ready to use, and a
// finished record can be used again; its slices keep their capacity, so a
// reused record allocates nothing.
type Pass struct {
	// acts[0] is the input and acts[i+1] layer i's output; caches[i] is
	// layer i's cache. A record is live while acts[0] is set.
	acts   []*tensor.Tensor
	caches []Cache
	// ownsInput says the input is the record's to return as well — a tensor
	// a pipeline stage received from a link — and not a caller's batch.
	ownsInput bool
}

// ForwardPass runs all layers on x like Forward, recording every layer's
// output and cache in p, and returns the last output, which stays p's. With
// ownsInput the record takes x over too and returns it with the rest;
// without, x is the caller's and never goes to the pool, whatever views of
// it the layers make.
func (n *Network) ForwardPass(p *Pass, x *tensor.Tensor, ownsInput bool) *tensor.Tensor {
	if len(p.acts) > 0 && p.acts[0] != nil {
		panic("nn: Pass reused before its BackwardPass or Release")
	}
	if L := len(n.Layers); cap(p.acts) < L+1 {
		p.acts, p.caches = make([]*tensor.Tensor, L+1), make([]Cache, L)
	} else {
		p.acts, p.caches = p.acts[:L+1], p.caches[:L]
	}
	p.acts[0], p.ownsInput = x, ownsInput
	for i, l := range n.Layers {
		x, p.caches[i] = l.Forward(x)
		p.acts[i+1] = x
	}
	return x
}

// Output returns the last layer's output of a live record.
func (p *Pass) Output() *tensor.Tensor { return p.acts[len(p.acts)-1] }

// BackwardPass propagates dy through all layers in reverse like Backward,
// accumulating parameter gradients, and returns to the pool every tensor of
// the pass as it dies — dy included, which must be the caller's to give.
//
// With wantDx the result, the gradient with respect to the input, is the
// caller's. Without it nothing computes that gradient and the result is nil:
// the lowest layer with parameters only accumulates its parameter gradients
// (Dense and Conv2D skip their input-gradient product), and the layers below
// it, having nothing to accumulate, only give their tensors back.
func (n *Network) BackwardPass(p *Pass, dy *tensor.Tensor, wantDx bool) *tensor.Tensor {
	stop := 0
	if !wantDx {
		n.Params() // brings n.lowest up to date
		stop = n.lowest
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		var dx *tensor.Tensor
		if i > stop || wantDx {
			dx = n.Layers[i].Backward(p.caches[i], dy)
		} else if i == stop {
			paramGrads(n.Layers[i], p.caches[i], dy)
		}
		p.release(i, dy, dx)
		dy = dx
	}
	p.acts[0] = nil
	return dy
}

// paramGrads accumulates l's parameter gradients from the cache and upstream
// gradient of one Forward, without the input gradient where the layer can
// skip it; where it cannot, the input gradient is computed and dropped.
func paramGrads(l Layer, c Cache, dy *tensor.Tensor) {
	if pl, ok := l.(interface{ paramGrads(Cache, *tensor.Tensor) }); ok {
		pl.paramGrads(c, dy)
		return
	}
	if dx := l.Backward(c, dy); !tensor.SharesStorage(dx, dy) {
		tensor.PutBuf(dx)
	}
}

// Release ends a forward-only pass: every recorded tensor goes back.
func (p *Pass) Release() {
	for i := len(p.caches) - 1; i >= 0; i-- {
		p.release(i, nil, nil)
	}
	p.acts[0] = nil
}

// release is the release rule, the one place a tensor of a pass goes back to
// the pool. Layer i is finished — its Backward turned dy into dx, or the pass
// is forward-only and both are nil — so two tensors are dead: the gradient
// that came into the layer, and the layer's own output (layers i+1… are done
// with it, and layer i's cache is spent). After layer 0 an owned input is
// dead too. A tensor whose storage a still-live tensor shares does not go
// back: a Flatten's output is a view of its input and its input gradient a
// view of the gradient it was given, an eval-mode Dropout returns its
// arguments themselves. Such storage is returned once, by the last tensor of
// the alias chain to die — the earliest activation, the final gradient — or
// never, when the chain starts at a caller's batch. (Activations and
// gradients are separate chains: no layer's Backward returns storage its
// Forward was given or made.)
func (p *Pass) release(i int, dy, dx *tensor.Tensor) {
	if !tensor.SharesStorage(dy, dx) {
		tensor.PutBuf(dy)
	}
	in, out := p.acts[i], p.acts[i+1]
	if !tensor.SharesStorage(out, in) {
		tensor.PutBuf(out)
	}
	p.acts[i+1], p.caches[i] = nil, nil
	if i == 0 && p.ownsInput {
		tensor.PutBuf(in)
	}
}

// Loss computes the softmax cross-entropy of the network on (x, labels).
func (n *Network) Loss(x *tensor.Tensor, labels []int) float64 {
	loss, dy := SoftmaxCrossEntropy(n.ForwardPass(&n.pass, x, false), labels)
	tensor.PutBuf(dy)
	n.pass.Release()
	return loss
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func (n *Network) Accuracy(x *tensor.Tensor, labels []int) float64 {
	logits := n.ForwardPass(&n.pass, x, false)
	correct := 0
	for i, lab := range labels {
		if logits.ArgmaxRow(i) == lab {
			correct++
		}
	}
	n.pass.Release()
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
			// ∇[µ/2‖w−w_g‖²] = µ(w − w_g). w + (−1)·w_g is w − w_g exactly —
			// IEEE subtraction is the addition of the negation — so the two
			// vector passes round as the one scalar expression did.
			diff := tensor.GetBufUninit(p.Value.Shape...)
			diff.CopyFrom(p.Value)
			global := tensor.Tensor{Data: o.Global[off : off+p.Value.Len()]}
			g.AddScaled(o.Mu, diff.AddScaled(-1, &global))
			tensor.PutBuf(diff)
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
// returns the loss before the update. The step owns every tensor it creates
// and returns each to the pool as soon as it is dead (see Pass.release); the
// caller's x never goes back. Nothing reads the gradient with respect to x,
// so nothing computes it.
func (n *Network) TrainBatch(x *tensor.Tensor, labels []int, opt *SGD) float64 {
	n.ZeroGrads()
	loss, dy := SoftmaxCrossEntropy(n.ForwardPass(&n.pass, x, false), labels)
	n.BackwardPass(&n.pass, dy, false)
	opt.Step(n.Params())
	return loss
}
