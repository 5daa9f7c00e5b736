package nn

import (
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

// BenchmarkTrainBatchMLP times one training step of the 32→64→10 MLP: at
// batch 32 with plain SGD, and at the fedround-train shape — batch 10 with the
// FedProx term on, the step fl.LocalTrain runs 40 times per client per round.
// Fed one fixed batch, the branch predictor learns that batch's ReLU zero
// pattern and the step runs faster than it ever does on data, so the
// fedround-varied leg cycles through 64 distinct seeded batches instead.
func BenchmarkTrainBatchMLP(b *testing.B) {
	for _, leg := range []struct {
		name           string
		batch, batches int
		mu             float64
	}{{"batch32", 32, 1, 0}, {"fedround", 10, 1, 0.05}, {"fedround-varied", 10, 64, 0.05}} {
		b.Run(leg.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net := NewMLP(rng, 32, 64, 10)
			xs := make([]*tensor.Tensor, leg.batches)
			for i := range xs {
				xs[i] = tensor.Randn(rng, 1, leg.batch, 32)
			}
			labels := make([]int, leg.batch)
			for i := range labels {
				labels[i] = i % 10
			}
			opt := &SGD{LR: 0.05, Mu: leg.mu, Global: net.FlatWeights()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.TrainBatch(xs[i%len(xs)], labels, opt)
			}
		})
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	logits := tensor.Randn(rng, 1, 64, 10)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SoftmaxCrossEntropy(logits, labels)
	}
}
