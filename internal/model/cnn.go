package model

import (
	"fmt"
	"math/rand"

	"ecofl/internal/nn"
)

// CNNBlockSpec describes one block of a trainable CNN.
type CNNBlockSpec struct {
	OutC int
	// Pool halves the spatial resolution after the convolution.
	Pool bool
	// Residual wraps the block's conv in a skip connection (requires
	// OutC == previous OutC and no pool).
	Residual bool
}

// NewTrainableCNN builds a convolutional Trainable: one 3×3 conv (+ReLU,
// optional 2×2 max-pool or residual skip) per block, then Flatten and a
// linear classifier as the final block. The companion Spec's per-layer
// costs are derived from the true tensor dimensions, so the partitioner and
// scheduler operate on the exact network being trained — a miniature of the
// paper's EfficientNet/MobileNet setup.
func NewTrainableCNN(rng *rand.Rand, name string, inC, size, classes int, blocks []CNNBlockSpec) *Trainable {
	t := &Trainable{Spec: &Spec{Name: name, InputBytes: float64(inC*size*size) * 8},
		InputShape: []int{inC, size, size}}
	c, hw := inC, size
	for i, b := range blocks {
		var layers []nn.Layer
		flops := 2.0 * float64(b.OutC*c*9*hw*hw) // 3×3 conv MACs ×2
		if b.Residual {
			if b.OutC != c || b.Pool {
				panic(fmt.Sprintf("model: residual block %d must preserve shape", i))
			}
			layers = append(layers, &nn.Residual{Inner: []nn.Layer{
				nn.NewConv2D(rng, c, b.OutC, 3, 1, 1), nn.ReLU{},
			}})
		} else {
			layers = append(layers, nn.NewConv2D(rng, c, b.OutC, 3, 1, 1), nn.ReLU{})
		}
		outHW := hw
		if b.Pool {
			layers = append(layers, nn.MaxPool2D{K: 2, Stride: 2})
			outHW = hw / 2
		}
		actBytes := float64(b.OutC*outHW*outHW) * 8
		t.Spec.Layers = append(t.Spec.Layers, LayerCost{
			Name:            fmt.Sprintf("conv%02d", i),
			FwdFLOPs:        flops,
			ActivationBytes: actBytes,
			GradientBytes:   actBytes,
			ResidentBytes:   float64(c*hw*hw)*8 + actBytes,
			ParamBytes:      float64(b.OutC*(c*9+1)) * 8,
		})
		t.Blocks = append(t.Blocks, layers)
		c, hw = b.OutC, outHW
	}
	// Classifier head block.
	feat := c * hw * hw
	head := []nn.Layer{nn.Flatten{}, nn.NewDense(rng, feat, classes)}
	headAct := float64(classes) * 8
	t.Spec.Layers = append(t.Spec.Layers, LayerCost{
		Name:            "head",
		FwdFLOPs:        2 * float64(feat*classes),
		ActivationBytes: headAct,
		GradientBytes:   headAct,
		ResidentBytes:   float64(feat)*8 + headAct,
		ParamBytes:      float64(feat*classes+classes) * 8,
	})
	t.Blocks = append(t.Blocks, head)
	return t.pack()
}

// MicroEfficientNet is a laptop-scale stand-in for EfficientNet: front-heavy
// activations (early pools), residual mid-blocks, widening channels.
func MicroEfficientNet(rng *rand.Rand, inC, size, classes int) *Trainable {
	return NewTrainableCNN(rng, "MicroEfficientNet", inC, size, classes, []CNNBlockSpec{
		{OutC: 8, Pool: true},
		{OutC: 8, Residual: true},
		{OutC: 16, Pool: true},
		{OutC: 16, Residual: true},
		{OutC: 24, Pool: true},
	})
}
