package nn

import (
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

// TestTrainBatchAllocFree is the training step's allocation budget. With a
// warm pool a step on the fedround-train model (MLP 32→64→10, batch 10,
// FedProx term on) allocates nothing: every activation and gradient is drawn
// from the pool and returned by the step that drew it, the parameter list is
// cached, and a matmul small enough to stay on the caller builds no closure.
func TestTrainBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; counts are meaningless")
	}
	rng := rand.New(rand.NewSource(1))
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}

	mlp := NewMLP(rng, 32, 64, 10)
	x := tensor.Randn(rng, 1, 10, 32)
	opt := &SGD{LR: 0.05, Mu: 0.05, Global: mlp.FlatWeights()}
	mlp.TrainBatch(x, labels, opt) // warm the pool
	if got := testing.AllocsPerRun(100, func() { mlp.TrainBatch(x, labels, opt) }); got != 0 {
		t.Errorf("warm MLP TrainBatch allocates %.1f objects/step, want 0", got)
	}

	// A convolutional step is not free; the budget is what it measures, at
	// any parallelism, and says what is left: MaxPool2D's argmax
	// index and cache struct (2), Flatten's two view headers with their shapes
	// and its boxed cache (5). Conv2D adds none: its im2col, bias and col2im
	// loops are typed jobs kept in its pooled cache, and neither the fan-out
	// nor the inline call allocates. No tensor storage: that all comes from
	// the pool.
	cnn := NewNetwork(NewConv2D(rng, 1, 4, 3, 1, 1), ReLU{}, MaxPool2D{K: 2, Stride: 2},
		Flatten{}, NewDense(rng, 4*4*4, 10))
	img := tensor.Randn(rng, 1, 10, 1, 8, 8)
	copt := &SGD{LR: 0.05, Mu: 0.05, Global: cnn.FlatWeights()}
	cnn.TrainBatch(img, labels, copt)
	const cnnStepAllocs = 7
	got := testing.AllocsPerRun(100, func() { cnn.TrainBatch(img, labels, copt) })
	t.Logf("warm CNN TrainBatch: %.1f allocations", got)
	if got > cnnStepAllocs {
		t.Errorf("warm CNN TrainBatch allocates %.1f objects/step, budget %d", got, cnnStepAllocs)
	}
}

// TestEvaluateRecyclesActivations pins the forward-only side: Accuracy and
// Loss return what their forward pass drew.
func TestEvaluateRecyclesActivations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; counts are meaningless")
	}
	rng := rand.New(rand.NewSource(2))
	net := NewMLP(rng, 32, 64, 10)
	x := tensor.Randn(rng, 1, 480, 32)
	labels := make([]int, 480)
	net.Accuracy(x, labels)
	net.Loss(x, labels)
	if got := testing.AllocsPerRun(50, func() { net.Accuracy(x, labels); net.Loss(x, labels) }); got != 0 {
		t.Errorf("warm Accuracy+Loss allocate %.1f objects, want 0", got)
	}
}
