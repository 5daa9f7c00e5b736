package nn

import (
	"math"
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

// gradCheckNet numerically verifies all parameter gradients of a network on
// a 4-D input.
func gradCheckNet(t *testing.T, net *Network, x *tensor.Tensor, labels []int, stride int) {
	t.Helper()
	net.ZeroGrads()
	logits, caches := net.Forward(x)
	_, dy := SoftmaxCrossEntropy(logits, labels)
	net.Backward(caches, dy)
	for _, p := range net.Params() {
		for i := 0; i < p.Value.Len(); i += stride {
			num := numericalGrad(net, x, labels, p.Value, i)
			ana := p.Grad.Data[i]
			if math.Abs(num-ana) > 2e-5*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
}

func TestConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(
		NewConv2D(rng, 2, 3, 3, 1, 1),
		ReLU{},
		MaxPool2D{K: 2, Stride: 2},
		Flatten{},
		NewDense(rng, 3*3*3, 4),
	)
	x := tensor.Randn(rng, 1, 3, 2, 6, 6)
	labels := []int{0, 1, 2}
	gradCheckNet(t, net, x, labels, 5)
}

func TestConv2DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(rng, 3, 8, 3, 2, 1)
	x := tensor.Randn(rng, 1, 2, 3, 9, 9)
	y, _ := c.Forward(x)
	// (9 + 2 − 3)/2 + 1 = 5
	want := []int{2, 8, 5, 5}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("shape %v, want %v", y.Shape, want)
		}
	}
}

func TestConv2DKnownValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(rng, 1, 1, 2, 1, 0)
	// Identity-ish kernel: w = [1 0; 0 0], b = 0 → output = top-left of
	// each receptive field.
	c.W.Value.Data = []float64{1, 0, 0, 0}
	clear(c.B.Value.Data)
	x := &tensor.Tensor{Shape: []int{1, 1, 3, 3}, Data: []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}}
	y, _ := c.Forward(x)
	want := []float64{1, 2, 4, 5}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("conv output %v, want %v", y.Data, want)
		}
	}
}

func TestMaxPoolForwardAndRouting(t *testing.T) {
	p := MaxPool2D{K: 2, Stride: 2}
	x := &tensor.Tensor{Shape: []int{1, 1, 4, 4}, Data: []float64{
		1, 2, 5, 3,
		4, 0, 1, 1,
		0, 0, 9, 2,
		3, 1, 2, 0,
	}}
	y, cache := p.Forward(x)
	want := []float64{4, 5, 3, 9}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool output %v, want %v", y.Data, want)
		}
	}
	// Gradient routes only to the argmax positions.
	dy := &tensor.Tensor{Shape: []int{1, 1, 2, 2}, Data: []float64{10, 20, 30, 40}}
	dx := p.Backward(cache, dy)
	if dx.Data[4] != 10 || dx.Data[2] != 20 || dx.Data[12] != 30 || dx.Data[10] != 40 {
		t.Fatalf("pool gradient misrouted: %v", dx.Data)
	}
	var sum float64
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("pool gradient must be conservative, sum %v", sum)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 1, 2, 3, 4, 5)
	f := Flatten{}
	y, cache := f.Forward(x)
	if y.Rows() != 2 || y.Cols() != 60 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := f.Backward(cache, y)
	for i, d := range x.Shape {
		if dx.Shape[i] != d {
			t.Fatalf("backward must restore shape: %v vs %v", dx.Shape, x.Shape)
		}
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(
		NewDense(rng, 4, 6),
		NewBatchNorm(6),
		ReLU{},
		NewDense(rng, 6, 3),
	)
	x := tensor.Randn(rng, 1, 5, 4)
	labels := []int{0, 1, 2, 1, 0}
	gradCheckNet(t, net, x, labels, 2)
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm(3)
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 1, 64, 3)
	for j := 0; j < 3; j++ {
		for i := 0; i < 64; i++ {
			x.Data[i*3+j] = x.Data[i*3+j]*float64(j+1) + 10*float64(j)
		}
	}
	y, _ := bn.Forward(x)
	for j := 0; j < 3; j++ {
		var mean, varr float64
		for i := 0; i < 64; i++ {
			mean += y.Data[i*3+j]
		}
		mean /= 64
		for i := 0; i < 64; i++ {
			d := y.Data[i*3+j] - mean
			varr += d * d
		}
		varr /= 64
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-3 {
			t.Fatalf("feature %d not normalized: mean %v var %v", j, mean, varr)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm(2)
	rng := rand.New(rand.NewSource(7))
	// Train on shifted data to move the running averages.
	for i := 0; i < 50; i++ {
		x := tensor.Randn(rng, 1, 16, 2)
		for j := range x.Data {
			x.Data[j] += 5
		}
		bn.Forward(x)
	}
	if math.Abs(bn.RunningMean[0]-5) > 1 {
		t.Fatalf("running mean should approach 5, got %v", bn.RunningMean[0])
	}
	bn.Train = false
	// A single eval sample equal to the running mean maps near beta (0).
	x := &tensor.Tensor{Shape: []int{1, 2}, Data: []float64{bn.RunningMean[0], bn.RunningMean[1]}}
	y, _ := bn.Forward(x)
	if math.Abs(y.Data[0]) > 0.1 {
		t.Fatalf("eval-mode output %v, want ≈0", y.Data[0])
	}
}

func TestDropoutMaskProperties(t *testing.T) {
	d := NewDropout(0.5, 42)
	rng := rand.New(rand.NewSource(8))
	x := tensor.Randn(rng, 1, 100, 10)
	x.Fill(1)
	y, cache := d.Forward(x)
	zeros, scaled := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			scaled++
		default:
			t.Fatalf("inverted dropout output must be 0 or 2, got %v", v)
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Fatalf("p=0.5 drop count %d implausible", zeros)
	}
	// Backward applies the same mask.
	dy := x.Clone()
	dx := d.Backward(cache, dy)
	nz := 0
	for _, v := range dx.Data {
		if v != 0 {
			nz++
		}
	}
	if nz != scaled {
		t.Fatalf("gradient mask mismatch: %d vs %d", nz, scaled)
	}
	// Eval mode is identity.
	d.Train = false
	y2, c2 := d.Forward(x)
	if !tensor.Equal(y2, x) || c2 != nil {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestResidualGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork(
		NewDense(rng, 4, 4),
		&Residual{Inner: []Layer{NewDense(rng, 4, 4), Tanh{}}},
		NewDense(rng, 4, 3),
	)
	x := tensor.Randn(rng, 1, 4, 4)
	labels := []int{0, 1, 2, 1}
	gradCheckNet(t, net, x, labels, 2)
}

func TestResidualSkipPath(t *testing.T) {
	// Inner stack that outputs zero → residual is identity.
	rng := rand.New(rand.NewSource(10))
	inner := NewDense(rng, 3, 3)
	clear(inner.W.Value.Data)
	clear(inner.B.Value.Data)
	r := &Residual{Inner: []Layer{inner}}
	x := tensor.Randn(rng, 1, 2, 3)
	y, _ := r.Forward(x)
	if !tensor.AlmostEqual(x, y, 1e-12) {
		t.Fatal("zero inner stack must make residual an identity")
	}
}

func TestSetTrainMode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(
		NewDense(rng, 3, 3),
		NewBatchNorm(3),
		&Residual{Inner: []Layer{NewDropout(0.3, 1)}},
	)
	net.SetTrainMode(false)
	if net.Layers[1].(*BatchNorm).Train {
		t.Fatal("BatchNorm must switch to eval")
	}
	if net.Layers[2].(*Residual).Inner[0].(*Dropout).Train {
		t.Fatal("nested Dropout must switch to eval")
	}
	net.SetTrainMode(true)
	if !net.Layers[1].(*BatchNorm).Train {
		t.Fatal("BatchNorm must switch back to train")
	}
}

func TestSmallCNNLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(
		NewConv2D(rng, 1, 4, 3, 1, 1),
		ReLU{},
		MaxPool2D{K: 2, Stride: 2},
		Flatten{},
		NewDense(rng, 4*4*4, 3),
	)
	// 8×8 images whose class is encoded by which quadrant is bright.
	n := 30
	x := tensor.Randn(rng, 0.3, n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % 3
		qy, qx := labels[i]/2, labels[i]%2
		for y := 0; y < 4; y++ {
			for xx := 0; xx < 4; xx++ {
				x.Data[i*64+(qy*4+y)*8+qx*4+xx] += 2
			}
		}
	}
	opt := &SGD{LR: 0.05, Momentum: 0.9}
	before := net.Loss(x, labels)
	for e := 0; e < 60; e++ {
		net.TrainBatch(x, labels, opt)
	}
	after := net.Loss(x, labels)
	if after > before/3 {
		t.Fatalf("CNN failed to learn: %v → %v", before, after)
	}
	if acc := net.Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("CNN accuracy %v < 0.9", acc)
	}
}

func TestConvCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := NewConv2D(rng, 2, 2, 3, 1, 1)
	cl := c.Clone().(*Conv2D)
	NewNetwork(cl)
	cl.W.Value.Data[0] = 99
	if c.W.Value.Data[0] == 99 {
		t.Fatal("a clone packed into a network must be independent")
	}
	bn := NewBatchNorm(4)
	bn.RunningMean[0] = 7
	bcl := bn.Clone().(*BatchNorm)
	NewNetwork(bcl)
	bcl.RunningMean[0] = 1
	if bn.RunningMean[0] != 7 {
		t.Fatal("BatchNorm clone must deep-copy running stats")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for name, f := range map[string]func(){
		"conv-zero-k":   func() { NewConv2D(rng, 1, 1, 0, 1, 0) },
		"conv-neg-pad":  func() { NewConv2D(rng, 1, 1, 3, 1, -1) },
		"dropout-p1":    func() { NewDropout(1, 0) },
		"conv-wrong-in": func() { c := NewConv2D(rng, 3, 1, 3, 1, 0); c.Forward(tensor.New(1, 2, 8, 8)) },
		"pool-not-4d":   func() { MaxPool2D{K: 2, Stride: 2}.Forward(tensor.New(4, 4)) },
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
