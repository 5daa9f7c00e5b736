package nn

import (
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

func TestTrainBatchParallelBitIdenticalToSerial(t *testing.T) {
	train := func(width int) []float64 {
		rng := rand.New(rand.NewSource(3))
		net := NewMLP(rng, 24, 48, 10)
		net.Width = width
		x := tensor.Randn(rng, 1, 16, 24)
		labels := make([]int, 16)
		for i := range labels {
			labels[i] = i % 10
		}
		opt := &SGD{LR: 0.05, Momentum: 0.9}
		for step := 0; step < 5; step++ {
			net.TrainBatch(x, labels, opt)
		}
		return net.FlatWeights()
	}
	serial := train(1)
	parallel := train(6)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("weight %d diverged: serial %v vs parallel %v", i, serial[i], parallel[i])
		}
	}
}
