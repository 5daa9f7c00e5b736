package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ecofl/internal/tensor"
)

// cloneTensor is a deep copy of t.
func cloneTensor(t *tensor.Tensor) *tensor.Tensor {
	return &tensor.Tensor{Shape: slices.Clone(t.Shape), Data: slices.Clone(t.Data)}
}

// sameTensor reports whether a and b have the same shape and equal elements.
func sameTensor(a, b *tensor.Tensor) bool {
	return slices.Equal(a.Shape, b.Shape) && slices.Equal(a.Data, b.Data)
}

// numericalGrad estimates dLoss/dtheta by central differences.
func numericalGrad(n *Network, x *tensor.Tensor, labels []int, theta *tensor.Tensor, i int) float64 {
	const h = 1e-5
	orig := theta.Data[i]
	theta.Data[i] = orig + h
	lp := n.Loss(x, labels)
	theta.Data[i] = orig - h
	lm := n.Loss(x, labels)
	theta.Data[i] = orig
	return (lp - lm) / (2 * h)
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := NewMLP(rng, 4, 6, 3)
	x := tensor.Randn(rng, 1, 5, 4)
	labels := []int{0, 1, 2, 1, 0}

	n.ZeroGrads()
	logits, caches := n.Forward(x)
	_, dy := SoftmaxCrossEntropy(logits, labels)
	n.Backward(caches, dy)

	for _, p := range n.Params() {
		for i := 0; i < p.Value.Len(); i += 3 { // spot-check every 3rd entry
			num := numericalGrad(n, x, labels, p.Value, i)
			ana := p.Grad.Data[i]
			if math.Abs(num-ana) > 1e-6*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
}

func TestInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := NewMLP(rng, 3, 5, 2)
	x := tensor.Randn(rng, 1, 4, 3)
	labels := []int{0, 1, 0, 1}

	logits, caches := n.Forward(x)
	_, dy := SoftmaxCrossEntropy(logits, labels)
	dx := n.Backward(caches, dy)

	const h = 1e-5
	for i := 0; i < x.Len(); i++ {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := n.Loss(x, labels)
		x.Data[i] = orig - h
		lm := n.Loss(x, labels)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(2, 4) // all-zero logits → uniform probs
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	want := math.Log(4)
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, want)
	}
	// gradient rows sum to zero
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += grad.RowView(i)[j]
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v, want 0", i, s)
		}
	}
}

func TestGradientAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewMLP(rng, 3, 4, 2)
	x1 := tensor.Randn(rng, 1, 2, 3)
	x2 := tensor.Randn(rng, 1, 2, 3)
	l1, l2 := []int{0, 1}, []int{1, 0}

	// Two backward passes without ZeroGrads must sum.
	n.ZeroGrads()
	out1, c1 := n.Forward(x1)
	_, d1 := SoftmaxCrossEntropy(out1, l1)
	n.Backward(c1, d1)
	gAfterOne := cloneTensor(n.Params()[0].Grad)

	out2, c2 := n.Forward(x2)
	_, d2 := SoftmaxCrossEntropy(out2, l2)
	n.Backward(c2, d2)
	gBoth := cloneTensor(n.Params()[0].Grad)

	n.ZeroGrads()
	out2b, c2b := n.Forward(x2)
	_, d2b := SoftmaxCrossEntropy(out2b, l2)
	n.Backward(c2b, d2b)
	gOnlyTwo := n.Params()[0].Grad

	sum := cloneTensor(gAfterOne).Add(gOnlyTwo)
	if !sameTensor(sum, gBoth) {
		t.Fatal("gradients must accumulate across Backward calls")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := NewMLP(rng, 8, 16, 3)
	x := tensor.Randn(rng, 1, 30, 8)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i % 3
		// make classes separable: shift feature `label`
		x.Data[i*8+labels[i]] += 3
	}
	opt := &SGD{LR: 0.1}
	before := n.Loss(x, labels)
	for e := 0; e < 200; e++ {
		n.TrainBatch(x, labels, opt)
	}
	after := n.Loss(x, labels)
	if after >= before/2 {
		t.Fatalf("training did not reduce loss: before %v, after %v", before, after)
	}
	if acc := n.Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("accuracy %v < 0.9 on separable data", acc)
	}
}

func TestFlatWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMLP(rng, 5, 7, 4)
	b := NewMLP(rng, 5, 7, 4) // different init
	w := a.FlatWeights()
	if len(w) != a.NumParams() {
		t.Fatalf("FlatWeights len %d != NumParams %d", len(w), a.NumParams())
	}
	b.SetFlatWeights(w)
	x := tensor.Randn(rng, 1, 3, 5)
	ya, _ := a.Forward(x)
	yb, _ := b.Forward(x)
	if !sameTensor(ya, yb) {
		t.Fatal("networks with identical weights must agree")
	}
}

func TestSetFlatWeightsWrongLenPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewMLP(rng, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short vector")
		}
	}()
	n.SetFlatWeights(make([]float64, 1))
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMLP(rng, 3, 4, 2)
	b := a.Clone()
	b.Params()[0].Value.Data[0] += 100
	if a.Params()[0].Value.Data[0] == b.Params()[0].Value.Data[0] {
		t.Fatal("Clone must deep-copy parameters")
	}
	x := tensor.Randn(rng, 1, 2, 3)
	ya, _ := a.Forward(x)
	c := a.Clone()
	yc, _ := c.Forward(x)
	if !sameTensor(ya, yc) {
		t.Fatal("fresh clone must compute identical outputs")
	}
}

func TestFedProxPullsTowardGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewMLP(rng, 2, 2)
	global := make([]float64, n.NumParams()) // zero vector
	opt := &SGD{LR: 0.5, Mu: 1.0, Global: global}
	before := n.FlatWeights()
	// With zero data gradient, repeated steps must shrink every weight
	// toward 0.
	n.ZeroGrads()
	for i := 0; i < 20; i++ {
		opt.Step(n)
	}
	for i, w := range n.FlatWeights() {
		if math.Abs(w) > 0.1*math.Abs(before[i]) {
			t.Fatalf("proximal term should pull weight %d to global: %v → %v", i, before[i], w)
		}
	}
}

func TestMomentumAcceleratesDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	build := func() *Network { return NewMLP(rand.New(rand.NewSource(99)), 4, 8, 2) }
	x := tensor.Randn(rng, 1, 20, 4)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 2
		x.Data[i*4+labels[i]] += 2
	}
	run := func(opt *SGD) float64 {
		n := build()
		for e := 0; e < 30; e++ {
			n.TrainBatch(x, labels, opt)
		}
		return n.Loss(x, labels)
	}
	plain := run(&SGD{LR: 0.02})
	mom := run(&SGD{LR: 0.02, Momentum: 0.9})
	if mom >= plain {
		t.Fatalf("momentum should converge faster here: plain %v, momentum %v", plain, mom)
	}
}

// Property: SoftmaxCrossEntropy loss is non-negative and the gradient of the
// true-label entry is non-positive (prob−1 ≤ 0) for random logits.
func TestSoftmaxPropertyNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := tensor.Randn(rng, 3, 4, 5)
		labels := []int{rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(5)}
		loss, grad := SoftmaxCrossEntropy(logits, labels)
		if loss < 0 {
			return false
		}
		for i, lab := range labels {
			if grad.RowView(i)[lab] > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFedProxWrongReferenceLeavesModel: a FedProx reference of the wrong
// length panics before the step writes a single weight.
func TestFedProxWrongReferenceLeavesModel(t *testing.T) {
	n := NewMLP(rand.New(rand.NewSource(19)), 3, 4, 2)
	for i := range n.g {
		n.g[i] = 1
	}
	for _, size := range []int{n.NumParams() - 1, n.NumParams() + 1} {
		before := n.FlatWeights()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("reference of %d weights for %d accepted", size, n.NumParams())
				}
			}()
			(&SGD{LR: 0.5, Momentum: 0.9, Mu: 1, Global: make([]float64, size)}).Step(n)
		}()
		for i, w := range n.FlatWeights() {
			if math.Float64bits(w) != math.Float64bits(before[i]) {
				t.Fatalf("reference of %d weights: weight %d moved %v → %v", size, i, before[i], w)
			}
		}
	}
}

// TestNetworkIsOneSlab pins the layout: every parameter views its network's
// slabs in layer order, a Sub is a window of them, and a model is packed
// once.
func TestNetworkIsOneSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := NewNetwork(
		NewConv2D(rng, 1, 2, 3, 1, 1), ReLU{}, Flatten{},
		&Residual{Inner: []Layer{NewDense(rng, 4, 4), ReLU{}}},
		NewDense(rng, 4, 4), NewDense(rng, 4, 3),
	)
	off := 0
	for i, l := range n.Layers {
		if n.offs[i] != off {
			t.Fatalf("layer %d starts at %d, want %d", i, n.offs[i], off)
		}
		for _, p := range l.Params() {
			k := p.Value.Len()
			if &p.Value.Data[0] != &n.w[off] || &p.Grad.Data[0] != &n.g[off] {
				t.Fatalf("%s does not view the slabs at %d", p.Name, off)
			}
			if cap(p.Value.Data) != k || cap(p.Grad.Data) != k {
				t.Fatalf("%s can grow into its neighbour", p.Name)
			}
			off += k
		}
	}
	if off != n.NumParams() || off != len(n.g) {
		t.Fatalf("params cover %d of %d weights", off, n.NumParams())
	}

	sub := n.Sub(3, 5)
	ones := make([]float64, sub.NumParams())
	for i := range ones {
		ones[i] = 1
	}
	sub.SetFlatWeights(ones)
	lo, hi := n.offs[3], n.offs[5]
	for i, w := range n.Weights() {
		if (i >= lo && i < hi) != (w == 1) {
			t.Fatalf("Sub(3, 5) wrote weight %d = %v; its window is [%d,%d)", i, w, lo, hi)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewNetwork packed a layer that already belongs to a network")
			}
		}()
		NewNetwork(n.Layers[0])
	}()

	cl := n.Clone()
	cl.Weights()[0] = 99
	if n.Weights()[0] == 99 || &cl.Params()[0].Value.Data[0] != &cl.Weights()[0] {
		t.Fatal("a clone must own its slabs")
	}
	// A clone allocates structure and two slabs, 49 allocations here; a
	// per-parameter copy would add two arrays for each of the ten parameters.
	mlp := NewMLP(rng, 4, 4, 4, 4, 4, 4)
	if a := testing.AllocsPerRun(20, func() { mlp.Clone() }); a > 60 {
		t.Fatalf("Clone of a 10-param MLP: %v allocations", a)
	}

	opt := &SGD{LR: 0.1, Momentum: 0.9}
	opt.Step(n)
	for name, other := range map[string]*Network{"clone": cl, "sub": n.Sub(0, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a momentum SGD stepped a second model (%s)", name)
				}
			}()
			opt.Step(other)
		}()
	}
}

// Forward runs all layers, returning the output and the per-layer caches:
// the plain pass these tests check layers with (every program runs
// ForwardPass and BackwardPass).
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, []Cache) {
	caches := make([]Cache, len(n.Layers))
	for i, l := range n.Layers {
		x, caches[i] = l.Forward(x, n.Width)
	}
	return x, caches
}

// Backward propagates dy through all layers in reverse, accumulating grads.
func (n *Network) Backward(caches []Cache, dy *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(caches[i], dy, n.Width)
	}
	return dy
}
