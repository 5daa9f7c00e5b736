package model

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ecofl/internal/nn"
	"ecofl/internal/tensor"
)

func cnnData(rng *rand.Rand, n, inC, size, classes int) (*tensor.Tensor, []int) {
	x := tensor.Randn(rng, 0.3, n, inC, size, size)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % classes
		// Brighten a class-specific column band.
		col := labels[i] * size / classes
		for y := 0; y < size; y++ {
			x.Data[i*inC*size*size+y*size+col] += 2.5
		}
	}
	return x, labels
}

func TestTrainableCNNSpecMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := MicroEfficientNet(rng, 1, 16, 4)
	if len(tr.Blocks) != tr.Spec.NumLayers() {
		t.Fatalf("blocks %d != spec layers %d", len(tr.Blocks), tr.Spec.NumLayers())
	}
	net := tr.Network()
	if got, want := tr.Spec.TotalParamBytes(), float64(net.NumParams()*8); got != want {
		t.Fatalf("spec param bytes %v != network %v", got, want)
	}
	// Activations front-loaded, as in the real architecture.
	n := tr.Spec.NumLayers()
	front := tr.Spec.Layers[0].ActivationBytes
	back := tr.Spec.Layers[n-2].ActivationBytes
	if front <= back {
		t.Fatalf("activations should shrink along the network: %v vs %v", front, back)
	}
}

func TestTrainableCNNSegmentsCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := MicroMobileNet(rng, 1, 16, 3, 1)
	x := tensor.Randn(rng, 1, 2, 1, 16, 16)
	full := tr.Network().ForwardPass(new(nn.Pass), x, false)
	mid := tr.SegmentNet(0, 2).ForwardPass(new(nn.Pass), x, false)
	out := tr.SegmentNet(2, len(tr.Blocks)).ForwardPass(new(nn.Pass), mid, false)
	if !slices.Equal(full.Shape, out.Shape) || !slices.Equal(full.Data, out.Data) {
		t.Fatal("CNN segments must compose to the full forward pass")
	}
}

func TestMicroCNNLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := MicroEfficientNet(rng, 1, 16, 4)
	net := tr.Network()
	x, labels := cnnData(rng, 24, 1, 16, 4)
	opt := &nn.SGD{LR: 0.03, Momentum: 0.9}
	before := net.Loss(x, labels)
	for e := 0; e < 40; e++ {
		net.TrainBatch(x, labels, opt)
	}
	after := net.Loss(x, labels)
	if after > before/2 {
		t.Fatalf("MicroEfficientNet failed to learn: %v → %v", before, after)
	}
}

func TestMobileNetWidthScalesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w1 := MicroMobileNet(rng, 1, 16, 4, 1)
	w2 := MicroMobileNet(rng, 1, 16, 4, 2)
	if w2.Network().NumParams() <= w1.Network().NumParams() {
		t.Fatal("width multiplier must grow parameter count")
	}
}

func TestResidualBlockShapeGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	defer func() {
		if recover() == nil {
			t.Fatal("residual block changing channels must panic")
		}
	}()
	NewTrainableCNN(rng, "bad", 1, 8, 2, []CNNBlockSpec{
		{OutC: 4},
		{OutC: 8, Residual: true}, // channel change under residual
	})
}

// MicroMobileNet is a narrower stand-in for MobileNetV2 with a width
// multiplier. No figure trains it; it stays for the CNN arithmetic its golden
// checksum pins (TestTrainBatchGoldenChecksums).
func MicroMobileNet(rng *rand.Rand, inC, size, classes int, width float64) *Trainable {
	w := func(c int) int {
		out := int(float64(c) * width)
		if out < 2 {
			out = 2
		}
		return out
	}
	return NewTrainableCNN(rng, fmt.Sprintf("MicroMobileNet-W%g", width), inC, size, classes, []CNNBlockSpec{
		{OutC: w(4), Pool: true},
		{OutC: w(8), Pool: true},
		{OutC: w(8), Residual: true},
		{OutC: w(16), Pool: true},
	})
}
