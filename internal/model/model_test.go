package model

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ecofl/internal/nn"
	"ecofl/internal/tensor"
)

func TestEfficientNetScalingLaw(t *testing.T) {
	b1 := EfficientNet(1)
	b4 := EfficientNet(4)
	b6 := EfficientNet(6)
	if !(b1.TotalFwdFLOPs() < b4.TotalFwdFLOPs() && b4.TotalFwdFLOPs() < b6.TotalFwdFLOPs()) {
		t.Fatal("FLOPs must grow with compound coefficient")
	}
	if !(b1.NumLayers() < b4.NumLayers() && b4.NumLayers() < b6.NumLayers()) {
		t.Fatal("depth must grow with compound coefficient")
	}
	if !(b1.TotalParamBytes() < b6.TotalParamBytes()) {
		t.Fatal("params must grow with compound coefficient")
	}
	// Sanity against published numbers (order of magnitude).
	if g := b1.TotalFwdFLOPs() / 1e9; g < 0.4 || g > 1.2 {
		t.Fatalf("B1 FLOPs %.2fG implausible", g)
	}
	if m := b6.TotalParamBytes() / 4 / 1e6; m < 25 || m > 70 {
		t.Fatalf("B6 params %.1fM implausible", m)
	}
}

func TestMobileNetScalesQuadratically(t *testing.T) {
	w1 := MobileNetV2(1)
	w2 := MobileNetV2(2)
	w3 := MobileNetV2(3)
	r21 := w2.TotalFwdFLOPs() / w1.TotalFwdFLOPs()
	r31 := w3.TotalFwdFLOPs() / w1.TotalFwdFLOPs()
	if math.Abs(r21-4) > 0.01 || math.Abs(r31-9) > 0.01 {
		t.Fatalf("width multiplier should scale FLOPs quadratically: %v, %v", r21, r31)
	}
	if w1.NumLayers() != w2.NumLayers() {
		t.Fatal("width multiplier must not change depth")
	}
}

func TestActivationsFrontLoaded(t *testing.T) {
	for _, s := range []*Spec{EfficientNet(1), MobileNetV2(2), FedAvgCNN()} {
		n := s.NumLayers()
		var front, back float64
		for i, l := range s.Layers {
			if i < n/2 {
				front += l.ActivationBytes
			} else {
				back += l.ActivationBytes
			}
		}
		if front <= back {
			t.Fatalf("%s: activations should be front-loaded (front %.0f vs back %.0f)", s.Name, front, back)
		}
	}
}

func TestParamsBackLoaded(t *testing.T) {
	s := EfficientNet(1)
	n := s.NumLayers()
	front := s.SegmentParamBytes(0, n/2)
	back := s.SegmentParamBytes(n/2, n)
	if back <= front {
		t.Fatalf("params should be back-loaded (front %.0f vs back %.0f)", front, back)
	}
}

func TestSegmentSumsConsistent(t *testing.T) {
	s := EfficientNet(2)
	n := s.NumLayers()
	if got, want := s.SegmentFwdFLOPs(0, n), s.TotalFwdFLOPs(); math.Abs(got-want) > 1 {
		t.Fatalf("segment over all layers %v != total %v", got, want)
	}
	mid := n / 2
	sum := s.SegmentFwdFLOPs(0, mid) + s.SegmentFwdFLOPs(mid, n)
	if math.Abs(sum-s.TotalFwdFLOPs()) > 1 {
		t.Fatal("split segments must sum to total")
	}
}

func TestCutBytes(t *testing.T) {
	s := MobileNetV2(1)
	if s.CutActivationBytes(0) != s.InputBytes {
		t.Fatal("cut 0 must be the model input")
	}
	if s.CutActivationBytes(3) != s.Layers[2].ActivationBytes {
		t.Fatal("cut j must be layer j-1's output")
	}
	if s.CutGradientBytes(3) != s.Layers[2].GradientBytes {
		t.Fatal("gradient cut mismatch")
	}
}

// Property: segment decomposition is additive for random cut points.
func TestSegmentAdditivityProperty(t *testing.T) {
	s := EfficientNet(3)
	n := s.NumLayers()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i := rng.Intn(n)
		j := i + rng.Intn(n-i)
		k := j + rng.Intn(n-j+1)
		lhs := s.SegmentFwdFLOPs(i, k)
		rhs := s.SegmentFwdFLOPs(i, j) + s.SegmentFwdFLOPs(j, k)
		return math.Abs(lhs-rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainableSpecMatchesNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTrainableMLP(rng, "test", 8, []int{16, 12}, 4)
	if len(tr.Blocks) != 3 || tr.Spec.NumLayers() != 3 {
		t.Fatalf("want 3 blocks, got %d/%d", len(tr.Blocks), tr.Spec.NumLayers())
	}
	// Spec param bytes must equal actual parameter count × 8.
	net := tr.Network()
	if got, want := tr.Spec.TotalParamBytes(), float64(net.NumParams()*8); got != want {
		t.Fatalf("spec params %v != network params %v", got, want)
	}
}

func TestTrainableSegmentsComposeToFullNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTrainableMLP(rng, "test", 6, []int{10, 8}, 3)
	x := tensor.Randn(rng, 1, 4, 6)
	full := tr.Network().ForwardPass(new(nn.Pass), x, false)

	seg1 := tr.SegmentNet(0, 2)
	seg2 := tr.SegmentNet(2, 3)
	mid := seg1.ForwardPass(new(nn.Pass), x, false)
	out := seg2.ForwardPass(new(nn.Pass), mid, false)
	if !slices.Equal(full.Shape, out.Shape) || !slices.Equal(full.Data, out.Data) {
		t.Fatal("segment composition must equal full forward")
	}
}

func TestTrainableSegmentsShareParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewTrainableMLP(rng, "test", 4, []int{6}, 2)
	seg := tr.SegmentNet(0, 1)
	seg.Params()[0].Value.Data[0] = 123.5
	if tr.Network().Params()[0].Value.Data[0] != 123.5 {
		t.Fatal("SegmentNet must share parameters with the trainable")
	}
	cl := tr.Clone()
	cl.Network().Params()[0].Value.Data[0] = -7
	if tr.Network().Params()[0].Value.Data[0] != 123.5 {
		t.Fatal("Clone must not share parameters")
	}
}

// TestTrainableIsOneModel: a segment is a window of the one model, at the
// offset its blocks start, and a clone is a model of its own.
func TestTrainableIsOneModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := NewTrainableMLP(rng, "test", 4, []int{6, 5, 3}, 2)
	before := tr.Network().FlatWeights()
	seg := tr.SegmentNet(1, 3)
	w := make([]float64, seg.NumParams())
	for i := range w {
		w[i] = float64(i) + 0.5
	}
	seg.SetFlatWeights(w)
	off := tr.SegmentNet(0, 1).NumParams()
	for i, got := range tr.Network().FlatWeights() {
		want := before[i]
		if i >= off && i < off+len(w) {
			want = w[i-off]
		}
		if got != want {
			t.Fatalf("weight %d = %v after SegmentNet(1, 3).SetFlatWeights, want %v", i, got, want)
		}
	}

	cl := tr.Clone()
	for i, p := range cl.Network().Params() {
		q := tr.Network().Params()[i]
		for _, a := range []*tensor.Tensor{p.Value, p.Grad} {
			for _, b := range []*tensor.Tensor{q.Value, q.Grad} {
				if tensor.SharesStorage(a, b) {
					t.Fatalf("clone's %s shares storage with its source", p.Name)
				}
			}
		}
	}
}

func TestTrainableTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := NewTrainableMLP(rng, "test", 6, []int{12}, 3)
	net := tr.Network()
	x := tensor.Randn(rng, 1, 30, 6)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i % 3
		x.Data[i*6+labels[i]] += 3
	}
	opt := &nn.SGD{LR: 0.1}
	before := net.Loss(x, labels)
	for e := 0; e < 100; e++ {
		net.TrainBatch(x, labels, opt)
	}
	if after := net.Loss(x, labels); after > before/2 {
		t.Fatalf("trainable failed to learn: %v → %v", before, after)
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"effnet-neg":   func() { EfficientNet(-1) },
		"effnet-big":   func() { EfficientNet(8) },
		"mobilenet-0":  func() { MobileNetV2(0) },
		"conv-1-layer": func() { buildConvSpec("x", 1, 1, 1, 1, 0.5, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestByName(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"effnet-b0", "EfficientNet-B0"},
		{"effnet-b7", "EfficientNet-B7"},
		{"mobilenet-w2", "MobileNetV2-W2"},
		{"mobilenet-w2.5", "MobileNetV2-W2.5"},
		{"fedavg-cnn", "FedAvgCNN"},
		// Every other name is an error, not a near miss or a panic.
		{"effnet-b4junk", ""},
		{"effnet-b-3", ""},
		{"effnet-b99", ""},
		{"effnet-b8", ""},
		{"effnet-b", ""},
		{"mobilenet-w-1", ""},
		{"mobilenet-w0", ""},
		{"mobilenet-wNaN", ""},
		{"mobilenet-wInf", ""},
		{"mobilenet-w2x", ""},
		{"resnet-50", ""},
		{"", ""},
	} {
		spec, err := ByName(c.name)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("ByName(%q) = %s, want an error", c.name, spec.Name)
		case c.want != "" && err != nil:
			t.Errorf("ByName(%q): %v", c.name, err)
		case c.want != "" && spec.Name != c.want:
			t.Errorf("ByName(%q) = %s, want %s", c.name, spec.Name, c.want)
		}
	}
}
