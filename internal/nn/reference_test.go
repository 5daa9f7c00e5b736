package nn

import (
	"math"
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

// The training step's branch-free bodies are held to the bodies they
// replaced, kept here as references, bit for bit.

// refReLUForward is ReLU.Forward's branching body: copy, then zero what is
// below zero.
func refReLUForward(x []float64) []float64 {
	y := append([]float64(nil), x...)
	for i, v := range y {
		if v < 0 {
			y[i] = 0
		}
	}
	return y
}

// refReLUBackward is ReLU.Backward's branching body: copy dy, then zero it
// where x is not above zero.
func refReLUBackward(x, dy []float64) []float64 {
	dx := append([]float64(nil), dy...)
	for i, v := range x {
		if v <= 0 {
			dx[i] = 0
		}
	}
	return dx
}

// reluSpecials are the values whose sign or class a select could get wrong.
var reluSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff0_0000_0000_0001), // a signalling NaN
	5e-324, -5e-324, 2.2250738585072e-308, -2.2250738585072e-308, // subnormals
	math.MaxFloat64, -math.MaxFloat64,
}

// checkReLUBodies runs ReLU's forward and backward on (x, dy) and fails
// unless every element's bits equal the references'.
func checkReLUBodies(t *testing.T, x, dy []float64) {
	t.Helper()
	xt := &tensor.Tensor{Shape: []int{len(x)}, Data: x}
	y, cache := ReLU{}.Forward(xt, 0)
	dx := ReLU{}.Backward(cache, &tensor.Tensor{Shape: []int{len(dy)}, Data: dy}, 0)
	wantY, wantDx := refReLUForward(x), refReLUBackward(x, dy)
	for i := range x {
		if math.Float64bits(y.Data[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("forward of %v (%#x): %#x, reference %#x", x[i], math.Float64bits(x[i]),
				math.Float64bits(y.Data[i]), math.Float64bits(wantY[i]))
		}
		if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx[i]) {
			t.Fatalf("backward of dy %v at x %v: %#x, reference %#x", dy[i], x[i],
				math.Float64bits(dx.Data[i]), math.Float64bits(wantDx[i]))
		}
	}
	tensor.PutBuf(y)
	tensor.PutBuf(dx)
}

// TestReLUMatchesReference pairs every special value with every other, as x
// and as dy, then random values with a quarter of them specials.
func TestReLUMatchesReference(t *testing.T) {
	var x, dy []float64
	for _, a := range reluSpecials {
		for _, b := range reluSpecials {
			x, dy = append(x, a), append(dy, b)
		}
	}
	checkReLUBodies(t, x, dy)

	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		if rng.Intn(4) == 0 {
			return reluSpecials[rng.Intn(len(reluSpecials))]
		}
		return rng.NormFloat64()
	}
	x, dy = make([]float64, 1000), make([]float64, 1000)
	for i := range x {
		x[i], dy[i] = draw(), draw()
	}
	checkReLUBodies(t, x, dy)
}

// FuzzReLUBodies holds ReLU's bodies to the references on fuzzed bit
// patterns: every float64, NaN payloads included.
func FuzzReLUBodies(f *testing.F) {
	f.Add(uint64(0), uint64(1)<<63)
	f.Add(math.Float64bits(math.Copysign(math.NaN(), -1)), math.Float64bits(-1.5))
	f.Add(uint64(1)<<63|1, uint64(0x7ff0_0000_0000_0001))
	f.Fuzz(func(t *testing.T, xb, dyb uint64) {
		x, dy := math.Float64frombits(xb), math.Float64frombits(dyb)
		checkReLUBodies(t, []float64{x, -x, dy, -dy}, []float64{dy, -dy, x, -x})
	})
}

// refSGDStep is SGD.Step as tensor passes over pooled copies: the gradient
// copied out, the FedProx difference w + (−1)·w_g scaled into it, the
// momentum scaled and added, then the scaled update.
func refSGDStep(o *SGD, n *Network) {
	g := append([]float64(nil), n.g...)
	gt := &tensor.Tensor{Data: g}
	if o.Mu != 0 && o.Global != nil {
		diff := &tensor.Tensor{Data: append([]float64(nil), n.w...)}
		gt.AddScaled(o.Mu, diff.AddScaled(-1, &tensor.Tensor{Data: o.Global}))
	}
	step := gt
	if o.Momentum != 0 {
		if o.velocity == nil {
			o.velocity = make([]float64, len(n.w))
		}
		step = (&tensor.Tensor{Data: o.velocity}).Scale(o.Momentum).Add(gt)
	}
	(&tensor.Tensor{Data: n.w}).AddScaled(-o.LR, step)
}

// TestSGDStepMatchesPassesReference steps two copies of a model from the same
// gradients, one with Step and one with the reference, under every
// combination of the proximal term and momentum, for several steps so the
// velocity carries: the weights must agree bit for bit.
func TestSGDStepMatchesPassesReference(t *testing.T) {
	for _, c := range []struct{ mu, momentum float64 }{{0, 0}, {0.05, 0}, {0, 0.9}, {0.05, 0.5}} {
		rng := rand.New(rand.NewSource(7))
		got := NewMLP(rng, 6, 5, 3)
		want := got.Clone()
		global := got.FlatWeights()
		optGot := &SGD{LR: 0.1, Momentum: c.momentum, Mu: c.mu, Global: global}
		optWant := &SGD{LR: 0.1, Momentum: c.momentum, Mu: c.mu, Global: global}
		for step := 0; step < 4; step++ {
			for i := range got.g {
				got.g[i] = rng.NormFloat64()
			}
			copy(want.g, got.g)
			optGot.Step(got)
			refSGDStep(optWant, want)
		}
		for i := range want.w {
			if math.Float64bits(got.w[i]) != math.Float64bits(want.w[i]) {
				t.Fatalf("mu %v momentum %v: weight %d is %v, reference %v", c.mu, c.momentum, i, got.w[i], want.w[i])
			}
		}
	}
}
