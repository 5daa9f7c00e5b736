package nn

import (
	"math"
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

// The recycling step returns tensors to a pool that every network in the
// process shares, so a tensor returned while something still reads it — or
// returned twice — does not fail where the mistake is: it corrupts whichever
// step draws it next. These tests hold TrainBatch against the composition it
// replaced, which returns nothing to the pool and so cannot go wrong that way.

// ownershipNets builds, from a seed, the networks the ownership test trains,
// with the per-sample input shape of each. Between them they hold every layer
// type and a view layer in every position that matters: first (its output is
// a view of the caller's batch), in the middle, and last (the logits are a
// view of the previous activation).
func ownershipNets(seed int64) (nets []*Network, inputs [][]int) {
	rng := rand.New(rand.NewSource(seed))
	// Every layer type: (1,8,8) → conv → (3,8,8) → pool → (3,4,4) → residual
	// → flatten → 48 → 16, a Flatten of the 16 (a view in the middle) → 16 →
	// 5. The view sits between two Dense layers of one output size, so a
	// storage returned twice comes back as both, and the second multiplies
	// into its own input.
	nets = append(nets, NewNetwork(
		NewConv2D(rng, 1, 3, 3, 1, 1), ReLU{}, MaxPool2D{K: 2, Stride: 2},
		&Residual{Inner: []Layer{NewConv2D(rng, 3, 3, 3, 1, 1), ReLU{}}},
		Flatten{}, NewDense(rng, 48, 16), Flatten{}, NewDense(rng, 16, 16), ReLU{},
		NewDense(rng, 16, 5)))
	inputs = append(inputs, []int{1, 8, 8})
	// Flatten first, Flatten last.
	nets = append(nets, NewNetwork(
		Flatten{}, NewDense(rng, 18, 12), ReLU{}, NewDense(rng, 12, 5), Flatten{}))
	inputs = append(inputs, []int{2, 3, 3})
	// A Flatten of a Flatten first (a view of a view of the caller's batch),
	// and nothing between the last Dense and the logits.
	nets = append(nets, NewNetwork(Flatten{}, Flatten{}, NewDense(rng, 18, 5)))
	inputs = append(inputs, []int{2, 3, 3})
	return nets, inputs
}

// explicitStep is one training step with no recycling: every tensor Forward,
// the loss and Backward create is left to the garbage collector.
func explicitStep(n *Network, x *tensor.Tensor, labels []int, opt *SGD) float64 {
	n.ZeroGrads()
	logits, caches := n.Forward(x)
	loss, dy := SoftmaxCrossEntropy(logits, labels)
	n.Backward(caches, dy)
	opt.Step(n)
	return loss
}

func TestTrainBatchMatchesNonRecyclingStep(t *testing.T) {
	const steps, batch, classes = 6, 7, 5
	type run struct {
		recycling, explicit *Network
		optR, optE          *SGD
		input               []int
		rng                 *rand.Rand
	}
	// Two independent sets of networks (seeds 1 and 2) share the pool and
	// take their steps in turn, so a buffer one of them returns early or
	// twice lands in the other's step as well as its own.
	var runs []*run
	for seed := int64(1); seed <= 2; seed++ {
		recycling, inputs := ownershipNets(seed)
		explicit, _ := ownershipNets(seed)
		for i := range recycling {
			global := recycling[i].FlatWeights()
			runs = append(runs, &run{
				recycling: recycling[i], explicit: explicit[i],
				optR:  &SGD{LR: 0.05, Momentum: 0.5, Mu: 0.05, Global: global},
				optE:  &SGD{LR: 0.05, Momentum: 0.5, Mu: 0.05, Global: global},
				input: inputs[i], rng: rand.New(rand.NewSource(100 + seed)),
			})
		}
	}
	for step := 0; step < steps; step++ {
		for ri, r := range runs {
			x := tensor.Randn(r.rng, 1, append([]int{batch}, r.input...)...)
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = r.rng.Intn(classes)
			}
			before := cloneTensor(x)
			lossR := r.recycling.TrainBatch(x, labels, r.optR)
			if !sameTensor(x, before) {
				t.Fatalf("run %d step %d: TrainBatch modified the caller's batch", ri, step)
			}
			lossE := explicitStep(r.explicit, x, labels, r.optE)
			if math.Float64bits(lossR) != math.Float64bits(lossE) {
				t.Fatalf("run %d step %d: loss %v recycling vs %v explicit", ri, step, lossR, lossE)
			}
		}
	}
	for ri, r := range runs {
		got, want := r.recycling.FlatWeights(), r.explicit.FlatWeights()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("run %d: weight %d is %v after %d recycling steps, %v after explicit ones",
					ri, i, got[i], steps, want[i])
			}
			if math.IsNaN(want[i]) {
				t.Fatalf("run %d: weight %d is NaN; the comparison pins nothing", ri, i)
			}
		}
	}
}

// TestBackwardPassWithoutDxSameParamGrads: a backward pass that computes no
// input gradient accumulates the same parameter gradients, bit for bit, as
// one that does — for an MLP, a stack whose lowest layer with parameters is a
// Conv2D or (behind a Flatten) a Dense, both of which skip their dx product,
// and one where it is a Residual, which cannot and drops its dx instead.
func TestBackwardPassWithoutDxSameParamGrads(t *testing.T) {
	build := func() (nets []*Network, inputs [][]int) {
		rng := rand.New(rand.NewSource(5))
		nets = append(nets, NewMLP(rng, 6, 8, 4))
		inputs = append(inputs, []int{6})
		nets = append(nets, NewNetwork(NewConv2D(rng, 2, 3, 3, 1, 1), ReLU{}, Flatten{}, NewDense(rng, 3*5*5, 4)))
		inputs = append(inputs, []int{2, 5, 5})
		nets = append(nets, NewNetwork(Flatten{}, NewDense(rng, 18, 8), ReLU{}, NewDense(rng, 8, 4)))
		inputs = append(inputs, []int{2, 3, 3})
		nets = append(nets, NewNetwork(Flatten{}, &Residual{Inner: []Layer{NewDense(rng, 18, 18), ReLU{}}}, NewDense(rng, 18, 4)))
		inputs = append(inputs, []int{2, 3, 3})
		return nets, inputs
	}
	with, inputs := build()
	without, _ := build()
	rng := rand.New(rand.NewSource(6))
	for i := range with {
		x := tensor.Randn(rng, 1, append([]int{7}, inputs[i]...)...)
		labels := []int{0, 1, 2, 3, 0, 1, 2}
		for _, n := range []*Network{with[i], without[i]} {
			n.ZeroGrads()
			var p Pass
			_, dy := SoftmaxCrossEntropy(n.ForwardPass(&p, x, false), labels)
			if dx := n.BackwardPass(&p, dy, n == with[i]); n == with[i] {
				if dx == nil || dx.Len() != x.Len() {
					t.Fatalf("net %d: BackwardPass with dx returned %v", i, dx)
				}
			} else if dx != nil {
				t.Fatalf("net %d: BackwardPass without dx returned a tensor", i)
			}
		}
		got, want := without[i].Params(), with[i].Params()
		for pi := range want {
			for j, w := range want[pi].Grad.Data {
				if g := got[pi].Grad.Data[j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("net %d: %s grad %d is %v without dx, %v with", i, want[pi].Name, j, g, w)
				}
			}
		}
	}
}

// TestEvaluateLeavesBatchAndViewsAlone: the forward-only passes recycle too,
// and must likewise leave the caller's batch out of the pool when the first
// layer's output is a view of it.
func TestEvaluateLeavesBatchAndViewsAlone(t *testing.T) {
	nets, inputs := ownershipNets(3)
	rng := rand.New(rand.NewSource(9))
	for i, n := range nets {
		x := tensor.Randn(rng, 1, append([]int{4}, inputs[i]...)...)
		labels := []int{0, 1, 2, 3}
		before := cloneTensor(x)
		loss, acc := n.Loss(x, labels), n.Accuracy(x, labels)
		// Draw and dirty every buffer the passes returned: were x among
		// them, this would overwrite it.
		for k := 0; k < 8; k++ {
			buf := tensor.GetBufUninit(x.Len())
			for j := range buf.Data {
				buf.Data[j] = math.NaN()
			}
		}
		if !sameTensor(x, before) {
			t.Fatalf("net %d: evaluating returned the caller's batch to the pool", i)
		}
		if l2, a2 := n.Loss(x, labels), n.Accuracy(x, labels); l2 != loss || a2 != acc {
			t.Fatalf("net %d: second evaluation gave loss %v acc %v, first %v %v", i, l2, a2, loss, acc)
		}
	}
}
