package model

import (
	"fmt"
	"math/rand"

	"ecofl/internal/nn"
)

// Trainable pairs a cost Spec with an executable network whose blocks align
// one-to-one with the Spec's layers, so a partition decision computed on the
// cost model can be applied directly to real training (the quickstart and
// the gradient-equivalence runtime use this).
//
// A Trainable is one packed nn.Network, which Network and SegmentNet view.
// A Trainable literal is not packed; its Clone is.
type Trainable struct {
	Spec   *Spec
	Blocks [][]nn.Layer // Blocks[i] executes Spec.Layers[i]
	// InputShape is the per-sample input tensor shape (e.g. [dim] for an
	// MLP, [C,H,W] for a CNN).
	InputShape []int

	net *nn.Network
	// starts[i] indexes block i's first layer in net.Layers, i ≤ len(Blocks).
	starts []int
}

// pack builds the one network over all blocks, at construction, since
// SegmentNet is called from several goroutines at a time.
func (t *Trainable) pack() *Trainable {
	var layers []nn.Layer
	t.starts = make([]int, 0, len(t.Blocks)+1)
	for _, b := range t.Blocks {
		t.starts = append(t.starts, len(layers))
		layers = append(layers, b...)
	}
	t.starts = append(t.starts, len(layers))
	t.net = nn.NewNetwork(layers...)
	return t
}

// NewTrainableMLP builds a block-structured MLP: one Dense(+ReLU) block per
// hidden width plus a final linear classifier block. The companion Spec's
// costs are derived from the true tensor dimensions (8-byte float64
// scalars), so partitioning the Spec partitions the real network
// consistently.
func NewTrainableMLP(rng *rand.Rand, name string, inDim int, hidden []int, classes int) *Trainable {
	dims := append([]int{inDim}, hidden...)
	dims = append(dims, classes)
	t := &Trainable{Spec: &Spec{Name: name, InputBytes: float64(inDim) * 8}, InputShape: []int{inDim}}
	for i := 0; i+1 < len(dims); i++ {
		in, out := dims[i], dims[i+1]
		var block []nn.Layer
		block = append(block, nn.NewDense(rng, in, out))
		last := i+2 == len(dims)
		if !last {
			block = append(block, nn.ReLU{})
		}
		t.Blocks = append(t.Blocks, block)
		actBytes := float64(out) * 8
		t.Spec.Layers = append(t.Spec.Layers, LayerCost{
			Name:            fmt.Sprintf("dense%02d", i),
			FwdFLOPs:        2 * float64(in) * float64(out),
			ActivationBytes: actBytes,
			GradientBytes:   actBytes,
			ResidentBytes:   float64(in)*8 + actBytes, // stored input + output
			ParamBytes:      float64(in*out+out) * 8,
		})
	}
	return t.pack()
}

// Network returns the view of the whole model.
func (t *Trainable) Network() *nn.Network { return t.SegmentNet(0, len(t.Blocks)) }

// SegmentNet returns the network over blocks [i, j), a view of the
// Trainable's model — the model segment a pipeline stage executes.
func (t *Trainable) SegmentNet(i, j int) *nn.Network {
	if t.net == nil {
		panic("model: Trainable literal used before packing; use its Clone")
	}
	return t.net.Sub(t.starts[i], t.starts[j])
}

// Clone deep-copies the trainable into a model of its own.
func (t *Trainable) Clone() *Trainable {
	out := &Trainable{Spec: t.Spec, InputShape: t.InputShape}
	for _, b := range t.Blocks {
		nb := make([]nn.Layer, len(b))
		for i, l := range b {
			nb[i] = l.Clone()
		}
		out.Blocks = append(out.Blocks, nb)
	}
	return out.pack()
}
