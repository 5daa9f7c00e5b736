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
