package model

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ecofl/internal/nn"
	"ecofl/internal/tensor"
)

// The golden checksums pin the training arithmetic across commits. Every
// other bit-identity test in the repo is an A/B inside one binary (parallel
// vs serial, a feature on vs off), so a kernel that changed its summation
// order on both sides at once would pass them all; these values were
// captured at the commit before the register-blocked kernels and the
// recycling TrainBatch landed and may only change with a deliberate change
// of arithmetic.
const (
	goldenFedroundMLP    uint64 = 0xacede2bd89d089b6
	goldenMicroMobileNet uint64 = 0xf36af32c0f965f33
)

// weightSum is the FNV-64a hash of a weight vector's bits.
func weightSum(w []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range w {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// trainedSum runs 50 seeded TrainBatch steps (FedProx term on) and hashes
// the resulting weights, which must have stayed finite to pin anything.
func trainedSum(t *testing.T, net *nn.Network, rng *rand.Rand, batch int, sample []int, classes int) uint64 {
	opt := &nn.SGD{LR: 0.05, Mu: 0.05, Global: net.FlatWeights()}
	shape := append([]int{batch}, sample...)
	labels := make([]int, batch)
	for step := 0; step < 50; step++ {
		x := tensor.Randn(rng, 1, shape...)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		net.TrainBatch(x, labels, opt)
	}
	w := net.FlatWeights()
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("weight %d is %v after training", i, v)
		}
	}
	return weightSum(w)
}

func TestTrainBatchGoldenChecksums(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values are amd64's: arm64 and others fuse multiply-add")
	}
	for _, width := range []int{1, 4} {
		// The fedround-train shape: MLP 32→64→10, batch 10, µ = 0.05.
		rng := rand.New(rand.NewSource(20220829))
		mlp := nn.NewMLP(rng, 32, 64, 10)
		mlp.Width = width
		if got := trainedSum(t, mlp, rng, 10, []int{32}, 10); got != goldenFedroundMLP {
			t.Errorf("width=%d fedround MLP: weights hash %#x, golden %#x", width, got, goldenFedroundMLP)
		}
		// Conv2D, ReLU, MaxPool2D, Residual, Flatten, Dense; batch 6 and 12×12
		// images leave remainders mod 4 in every kernel dimension.
		rng = rand.New(rand.NewSource(20220829))
		cnn := MicroMobileNet(rng, 1, 12, 10, 1).Network()
		cnn.Width = width
		if got := trainedSum(t, cnn, rng, 6, []int{1, 12, 12}, 10); got != goldenMicroMobileNet {
			t.Errorf("width=%d MicroMobileNet: weights hash %#x, golden %#x", width, got, goldenMicroMobileNet)
		}
	}
}
