// Package model provides layer-graph cost models of the DNNs the paper
// trains (EfficientNet-B*, MobileNetV2-W*) plus small executable
// counterparts. Pipeline partitioning and scheduling algorithms consume only
// per-layer profiles — forward FLOPs, activation bytes a_l, gradient bytes
// g_l, parameter bytes w_l (§4.2) — so a cost model with realistic scaling
// laws exercises the same code paths as profiling a physical network.
package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LayerCost is the per-layer profile the workload partitioner consumes.
// All byte quantities are per sample; multiply by micro-batch size for a
// micro-batch's footprint.
type LayerCost struct {
	Name string
	// FwdFLOPs is the forward-pass cost of one sample through this layer.
	// The backward pass is modelled as BackwardFactor × forward.
	FwdFLOPs float64
	// ActivationBytes is the layer's output activation size a_l: what must
	// cross the link if the pipeline is cut after this layer.
	ActivationBytes float64
	// GradientBytes is the input-gradient size g_l flowing backward across
	// the same cut.
	GradientBytes float64
	// ResidentBytes is the memory that must stay resident between a
	// micro-batch's forward and backward pass through this layer
	// (stored inputs/intermediates).
	ResidentBytes float64
	// ParamBytes is the parameter (plus gradient) footprint w_l.
	ParamBytes float64
}

// BackwardFactor approximates BP cost as 2× FP (grad w.r.t. inputs and
// weights), the standard rule of thumb.
const BackwardFactor = 2.0

// Spec is a sequential layer-granularity model description.
type Spec struct {
	Name   string
	Layers []LayerCost
	// InputBytes is the per-sample input size (the stage-0 ingress).
	InputBytes float64
}

// NumLayers returns the number of partitionable layers.
func (s *Spec) NumLayers() int { return len(s.Layers) }

// TotalFwdFLOPs sums forward FLOPs over all layers.
func (s *Spec) TotalFwdFLOPs() float64 {
	var t float64
	for _, l := range s.Layers {
		t += l.FwdFLOPs
	}
	return t
}

// TotalParamBytes sums parameter bytes over all layers.
func (s *Spec) TotalParamBytes() float64 {
	var t float64
	for _, l := range s.Layers {
		t += l.ParamBytes
	}
	return t
}

// SegmentFwdFLOPs sums forward FLOPs of layers [i, j) (0-based, half-open).
func (s *Spec) SegmentFwdFLOPs(i, j int) float64 {
	var t float64
	for _, l := range s.Layers[i:j] {
		t += l.FwdFLOPs
	}
	return t
}

// SegmentParamBytes sums parameter bytes of layers [i, j).
func (s *Spec) SegmentParamBytes(i, j int) float64 {
	var t float64
	for _, l := range s.Layers[i:j] {
		t += l.ParamBytes
	}
	return t
}

// SegmentResidentBytes sums per-sample resident activation bytes of [i, j).
func (s *Spec) SegmentResidentBytes(i, j int) float64 {
	var t float64
	for _, l := range s.Layers[i:j] {
		t += l.ResidentBytes
	}
	return t
}

// CutActivationBytes returns a_l for a cut after layer j-1 (i.e. between
// layers j-1 and j); cut 0 is the model input.
func (s *Spec) CutActivationBytes(j int) float64 {
	if j == 0 {
		return s.InputBytes
	}
	return s.Layers[j-1].ActivationBytes
}

// CutGradientBytes returns g_l for the same cut.
func (s *Spec) CutGradientBytes(j int) float64 {
	if j == 0 {
		return s.InputBytes
	}
	return s.Layers[j-1].GradientBytes
}

func (s *Spec) String() string {
	return fmt.Sprintf("%s(%d layers, %.2f GFLOPs, %.1f MB params)",
		s.Name, s.NumLayers(), s.TotalFwdFLOPs()/1e9, s.TotalParamBytes()/1e6)
}

const bytesPerScalar = 4 // float32, as in the paper's PyTorch prototype

// ByName returns the cost model a name spells: effnet-bN (N a digit 0–7),
// mobilenet-wX (X a finite positive width multiplier) or fedavg-cnn. Any
// other name, trailing characters included, is an error.
func ByName(name string) (*Spec, error) {
	if b, ok := strings.CutPrefix(name, "effnet-b"); ok {
		if len(b) == 1 && b[0] >= '0' && b[0] <= '7' {
			return EfficientNet(int(b[0] - '0')), nil
		}
		return nil, fmt.Errorf("model: bad model %q (effnet-b0 … effnet-b7)", name)
	}
	if w, ok := strings.CutPrefix(name, "mobilenet-w"); ok {
		x, err := strconv.ParseFloat(w, 64)
		if err != nil || !(x > 0) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("model: bad model %q (mobilenet-wX, X a finite positive width)", name)
		}
		return MobileNetV2(x), nil
	}
	if name == "fedavg-cnn" {
		return FedAvgCNN(), nil
	}
	return nil, fmt.Errorf("model: unknown model %q (effnet-bN, mobilenet-wX, fedavg-cnn)", name)
}

// ---------------------------------------------------------------- EfficientNet

// EfficientNet returns a cost model of EfficientNet-B<b> following the
// compound-scaling law (Tan & Le 2019): depth ×1.2^φ, width ×1.1^φ,
// resolution ×1.15^φ. Activations are concentrated at the front of the
// network (large spatial dimensions), the property Fig. 5 exploits, while
// parameters concentrate toward the back.
func EfficientNet(b int) *Spec {
	if b < 0 || b > 7 {
		panic(fmt.Sprintf("model: EfficientNet-B%d out of range", b))
	}
	phi := float64(b)
	baseLayers := 16
	layers := int(math.Round(float64(baseLayers) * math.Pow(1.2, phi)))
	totalFLOPs := 0.39e9 * math.Pow(1.82, phi) // B0≈0.39G, B1≈0.71G, B4≈4.3G, B6≈14G
	totalParams := 5.3e6 * math.Pow(1.42, phi) // B0≈5.3M, B4≈21M, B6≈43M
	res := 224 * math.Pow(1.15, phi)           // input resolution
	inputBytes := 3 * res * res * bytesPerScalar

	return buildConvSpec(fmt.Sprintf("EfficientNet-B%d", b), layers, totalFLOPs, totalParams, inputBytes,
		0.72, // activation decay: steep — activations front-loaded
		1.45, // param growth: back-loaded
	)
}

// ---------------------------------------------------------------- MobileNetV2

// MobileNetV2 returns a cost model of MobileNetV2 with width multiplier w.
// FLOPs and parameters scale ≈ w² (Sandler et al. 2018).
func MobileNetV2(w float64) *Spec {
	if w <= 0 {
		panic("model: MobileNetV2 width multiplier must be positive")
	}
	layers := 19 // 17 bottleneck blocks + stem + head
	totalFLOPs := 0.30e9 * w * w
	totalParams := 3.4e6 * w * w
	inputBytes := 3.0 * 224 * 224 * bytesPerScalar
	return buildConvSpec(fmt.Sprintf("MobileNetV2-W%g", w), layers, totalFLOPs, totalParams, inputBytes,
		0.78, // activations decay a little more gently than EfficientNet
		1.35,
	)
}

// FedAvgCNN is a cost model of the small CNN used by FedAvg for the
// CIFAR/MNIST experiments (McMahan et al. 2017): two conv layers and two
// dense layers, ~1.6M parameters.
func FedAvgCNN() *Spec {
	return buildConvSpec("FedAvgCNN", 4, 0.05e9, 1.6e6, 3*32*32*bytesPerScalar, 0.6, 1.6)
}

// buildConvSpec distributes total FLOPs/params across layers of a
// convolutional architecture with geometric activation decay (actDecay < 1,
// front-heavy activations) and geometric parameter growth (paramGrowth > 1,
// back-heavy parameters). FLOPs follow a mid-heavy plateau: early layers do
// much spatial work, late layers many channels, so per-layer compute is
// comparatively even — modelled as a gentle hump peaked mid-network.
func buildConvSpec(name string, layers int, totalFLOPs, totalParams, inputBytes, actDecay, paramGrowth float64) *Spec {
	if layers < 2 {
		panic("model: need at least 2 layers")
	}
	flopW := make([]float64, layers)
	actW := make([]float64, layers)
	paramW := make([]float64, layers)
	var flopSum, paramSum float64
	for i := 0; i < layers; i++ {
		x := float64(i) / float64(layers-1)
		flopW[i] = 0.6 + math.Sin(math.Pi*x) // hump peaked mid-network
		flopSum += flopW[i]
		actW[i] = math.Pow(actDecay, float64(i))
		paramW[i] = math.Pow(paramGrowth, float64(i))
		paramSum += paramW[i]
	}
	// First activation scale: tied to input size — a conv stem halves
	// resolution but multiplies channels, so act₀ ≈ 2× input bytes.
	act0 := inputBytes * 2
	spec := &Spec{Name: name, InputBytes: inputBytes}
	for i := 0; i < layers; i++ {
		act := act0 * actW[i]
		spec.Layers = append(spec.Layers, LayerCost{
			Name:            fmt.Sprintf("block%02d", i),
			FwdFLOPs:        totalFLOPs * flopW[i] / flopSum,
			ActivationBytes: act,
			GradientBytes:   act,
			// Resident memory: the layer's stored input + workspace ≈
			// 1.5× its output activation.
			ResidentBytes: act * 1.5,
			ParamBytes:    totalParams * bytesPerScalar * paramW[i] / paramSum,
		})
	}
	return spec
}
