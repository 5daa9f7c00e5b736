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

	packed bool // Value and Grad view a Network's slabs
}

// view is a new, unpacked Param over p's storage: what a Layer.Clone holds
// until NewNetwork gives it storage of its own.
func (p *Param) view() *Param {
	v, g := *p.Value, *p.Grad
	return &Param{Name: p.Name, Value: &v, Grad: &g}
}

// Cache carries whatever a layer's Forward needs to remember for Backward.
type Cache interface{}

// Layer is a differentiable module. Backward must accumulate (+=) parameter
// gradients so that micro-batch gradients sum naturally. Forward and Backward
// run their kernels at most width wide: the width of the Network they run in
// (see Network.Width), never one a layer keeps, since a layer is shared by
// every Sub of its network.
type Layer interface {
	// Forward maps a (batch × in) tensor to (batch × out) plus a cache.
	Forward(x *tensor.Tensor, width int) (*tensor.Tensor, Cache)
	// Backward consumes the cache from the matching Forward call and the
	// upstream gradient, accumulates parameter gradients, and returns the
	// gradient with respect to the input.
	Backward(c Cache, dy *tensor.Tensor, width int) *tensor.Tensor
	Params() []*Param
	// OutShape maps a per-sample input shape (no batch dimension) to that
	// of Forward's output, from the layer's geometry alone.
	OutShape(in []int) []int
	// Clone copies the layer's structure, not its storage: the copy's new,
	// unpacked params view the original's until NewNetwork packs them.
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

func (d *Dense) Forward(x *tensor.Tensor, width int) (*tensor.Tensor, Cache) {
	y := tensor.MatMulInto(tensor.GetBufUninit(x.Rows(), d.Out), x, d.W.Value, width)
	for i := 0; i < y.Rows(); i++ {
		row := tensor.Tensor{Data: y.RowView(i)}
		row.Add(d.B.Value)
	}
	return y, x
}

func (d *Dense) Backward(c Cache, dy *tensor.Tensor, width int) *tensor.Tensor {
	d.paramGrads(c, dy, width)
	return tensor.MatMulBTInto(tensor.GetBufUninit(dy.Rows(), d.In), dy, d.W.Value, width)
}

// paramGrads is Backward without the input gradient: it accumulates dW and
// db and nothing else.
func (d *Dense) paramGrads(c Cache, dy *tensor.Tensor, width int) {
	x := c.(*tensor.Tensor)
	dw := tensor.MatMulATInto(tensor.GetBufUninit(d.In, d.Out), x, dy, width)
	d.W.Grad.Add(dw)
	tensor.PutBuf(dw)
	for i := 0; i < dy.Rows(); i++ {
		row := tensor.Tensor{Data: dy.RowView(i)}
		d.B.Grad.Add(&row)
	}
}

func (d *Dense) Params() []*Param     { return []*Param{d.W, d.B} }
func (d *Dense) OutShape([]int) []int { return []int{d.Out} }

func (d *Dense) Clone() Layer {
	return &Dense{In: d.In, Out: d.Out, W: d.W.view(), B: d.B.view()}
}

// ---------------------------------------------------------------- ReLU

// ReLU applies max(0, x) element-wise: +0 where x < 0, x itself elsewhere, so
// −0 stays −0 and NaN passes through. Backward passes dy where x > 0 and +0
// elsewhere, NaN x included. About half the outputs are zero in no learnable
// pattern, so both select a value's bits instead of branching on it: an if
// that only picks one of two integers compiles to a CMOV on amd64.
type ReLU struct{}

func (ReLU) Forward(x *tensor.Tensor, _ int) (*tensor.Tensor, Cache) {
	y := tensor.GetBufUninit(x.Shape...)
	out := y.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float64bits(v)
		if v < 0 {
			b = 0
		}
		out[i] = math.Float64frombits(b)
	}
	return y, x
}

func (ReLU) Backward(c Cache, dy *tensor.Tensor, _ int) *tensor.Tensor {
	x := c.(*tensor.Tensor)
	dx := tensor.GetBufUninit(dy.Shape...)
	in, out := dy.Data[:len(x.Data)], dx.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float64bits(in[i])
		if v <= 0 {
			b = 0
		}
		out[i] = math.Float64frombits(b)
	}
	return dx
}

func (ReLU) Params() []*Param        { return nil }
func (ReLU) OutShape(in []int) []int { return in }
func (ReLU) Clone() Layer            { return ReLU{} }

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

// Network is a sequential stack of layers over one model vector: every
// Param's Value.Data and Grad.Data view the slabs w and g in layer order, and
// a Sub views a window of its parent's. A Network is not safe for concurrent
// use: beside the weights, it keeps the record of the step in progress.
type Network struct {
	Layers []Layer
	// Width is how many cores the layers' kernels may fan out to: the share
	// of the box the network's caller owns (tensor.Split), 0 for all of it.
	// It is this Network's own, not its layers' nor a Sub's, so a pipeline
	// stage's share leaves the model it views at its own.
	Width int

	w, g []float64
	// offs[i]−offs[0] is where layer i's parameters start in w and g;
	// offs[len(Layers)]−offs[0] is len(w).
	offs   []int
	params []*Param
	// pass records the forward pass of a TrainBatch, Loss or Accuracy
	// call; only its slice headers outlive the call.
	pass Pass
}

// NewNetwork builds a network from the given layers, copying their params'
// values and gradients into its own slabs. A param already packed into a
// network panics: packing it again would silently split a shared model.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{Layers: layers, offs: make([]int, len(layers)+1)}
	for i, l := range layers {
		lp := l.Params()
		n.offs[i+1] = n.offs[i]
		for _, p := range lp {
			if p.packed {
				panic(fmt.Sprintf("nn: NewNetwork: param %s already belongs to a network", p.Name))
			}
			p.packed = true
			n.offs[i+1] += p.Value.Len()
		}
		n.params = append(n.params, lp...)
	}
	n.w, n.g = make([]float64, n.offs[len(layers)]), make([]float64, n.offs[len(layers)])
	off := 0
	for _, p := range n.params {
		k := off + p.Value.Len()
		copy(n.w[off:k], p.Value.Data)
		copy(n.g[off:k], p.Grad.Data)
		p.Value.Data, p.Grad.Data = n.w[off:k:k], n.g[off:k:k]
		off = k
	}
	return n
}

// Sub returns the network over Layers[i:j], a view of its window of n's
// slabs with a Pass record of its own.
func (n *Network) Sub(i, j int) *Network {
	base := n.offs[0]
	lo, hi := n.offs[i]-base, n.offs[j]-base
	s := &Network{Layers: n.Layers[i:j:j], w: n.w[lo:hi:hi], g: n.g[lo:hi:hi], offs: n.offs[i : j+1 : j+1]}
	for _, l := range s.Layers {
		s.params = append(s.params, l.Params()...)
	}
	return s
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

// OutShape maps a per-sample input shape to that of the network's output
// (see Layer.OutShape).
func (n *Network) OutShape(in []int) []int {
	for _, l := range n.Layers {
		in = l.OutShape(in)
	}
	return in
}

// Params returns all trainable parameters in layer order; do not modify it.
func (n *Network) Params() []*Param { return n.params }

// Weights returns the network's weight slab itself, for reading.
func (n *Network) Weights() []float64 { return n.w }

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() { clear(n.g) }

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int { return len(n.w) }

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.Clone()
	}
	return NewNetwork(layers...)
}

// FlatWeights returns a copy of all parameter values as one flat vector.
func (n *Network) FlatWeights() []float64 { return append(make([]float64, 0, len(n.w)), n.w...) }

// SetFlatWeights installs a flat vector previously produced by FlatWeights.
func (n *Network) SetFlatWeights(w []float64) {
	if len(w) != len(n.w) {
		panic(fmt.Sprintf("nn: SetFlatWeights got %d weights, network has %d", len(w), len(n.w)))
	}
	copy(n.w, w)
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

// ForwardPass runs all layers on x, recording every layer's
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
		x, p.caches[i] = l.Forward(x, n.Width)
		p.acts[i+1] = x
	}
	return x
}

// Output returns the last layer's output of a live record.
func (p *Pass) Output() *tensor.Tensor { return p.acts[len(p.acts)-1] }

// BackwardPass propagates dy through all layers in reverse, accumulating parameter gradients, and returns to the pool every tensor of
// the pass as it dies — dy included, which must be the caller's to give.
//
// With wantDx the result, the gradient with respect to the input, is the
// caller's. Without it nothing computes that gradient and the result is nil:
// the lowest layer with parameters only accumulates its parameter gradients
// (Dense skips its input-gradient product), and the layers below
// it, having nothing to accumulate, only give their tensors back.
func (n *Network) BackwardPass(p *Pass, dy *tensor.Tensor, wantDx bool) *tensor.Tensor {
	stop := 0
	if !wantDx { // the lowest layer with parameters, len(n.Layers) if none has any
		for stop < len(n.Layers) && n.offs[stop+1] == n.offs[stop] {
			stop++
		}
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		var dx *tensor.Tensor
		if i > stop || wantDx {
			dx = n.Layers[i].Backward(p.caches[i], dy, n.Width)
		} else if i == stop {
			paramGrads(n.Layers[i], p.caches[i], dy, n.Width)
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
func paramGrads(l Layer, c Cache, dy *tensor.Tensor, width int) {
	if pl, ok := l.(interface {
		paramGrads(Cache, *tensor.Tensor, int)
	}); ok {
		pl.paramGrads(c, dy, width)
		return
	}
	if dx := l.Backward(c, dy, width); !tensor.SharesStorage(dx, dy) {
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
// back: Layer is an interface, so a layer may return its input, or a view of
// it, as its output, and the gradient it was given as its input gradient
// (and stage 0's input is a view of the caller's batch). Such storage is returned once, by the
// last tensor of the alias chain to die — the earliest activation, the final
// gradient — or never, when the chain starts at a caller's batch.
// (Activations and gradients are separate chains: no layer's Backward returns
// storage its Forward was given or made.)
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

// SGD is stochastic gradient descent with optional momentum and a FedProx
// proximal term µ‖w − w_global‖²/2 (set Mu > 0 and Global).
type SGD struct {
	LR       float64
	Momentum float64
	// Mu is the FedProx proximal coefficient; Global is the flat reference
	// weight vector the proximal term pulls toward. Both optional.
	Mu     float64
	Global []float64

	// velocity is the momentum of the slab whose first weight is slab.
	velocity []float64
	slab     *float64
}

// Step applies one update to n's weights from its gradients, in one pass
// over the slabs: per weight the FedProx difference, its scaled add to the
// gradient, the optional momentum, then the update. A Global of the wrong
// length panics before anything is written, and so does a momentum optimizer
// stepping a second model.
func (o *SGD) Step(n *Network) {
	size := len(n.w)
	prox := o.Mu != 0 && o.Global != nil
	if prox && len(o.Global) != size {
		panic(fmt.Sprintf("nn: SGD.Step: FedProx reference has %d weights, network has %d", len(o.Global), size))
	}
	if size == 0 {
		return
	}
	if o.Momentum != 0 {
		if o.slab == nil {
			o.velocity, o.slab = make([]float64, size), &n.w[0]
		} else if o.slab != &n.w[0] || len(o.velocity) != size {
			panic("nn: SGD.Step: a momentum optimizer steps the one model it first stepped")
		}
	}
	// Each weight's expressions round as the tensor passes they replace did:
	// a product is rounded before it is added (the float64 conversions forbid
	// a fused multiply-add), and ∇[µ/2‖w−w_g‖²] = µ(w − w_g).
	w := n.w
	g := n.g[:len(w)]
	var ref, vel []float64
	if prox {
		ref = o.Global[:len(w)]
	}
	if o.Momentum != 0 {
		vel = o.velocity[:len(w)]
	}
	mu, m, nlr := o.Mu, o.Momentum, -o.LR
	for j, gj := range g {
		if prox {
			gj += float64(mu * (w[j] - ref[j]))
		}
		if vel != nil {
			gj = float64(vel[j]*m) + gj
			vel[j] = gj
		}
		w[j] += float64(nlr * gj)
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
	opt.Step(n)
	return loss
}
