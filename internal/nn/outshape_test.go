package nn_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/tensor"
)

// TestOutShapeMatchesForward holds every layer type's OutShape, and the
// model constructor's stack block by block, to the shape Forward actually
// produces on a batch of three samples.
func TestOutShapeMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// check compares out, what OutShape says of in, with what forward makes
	// of a batch shaped in, and returns the latter.
	check := func(name string, in, out []int, forward func(*tensor.Tensor) (*tensor.Tensor, any)) []int {
		t.Helper()
		y, _ := forward(tensor.Randn(rng, 1, append([]int{3}, in...)...))
		if !slices.Equal(out, y.Shape[1:]) {
			t.Errorf("%s on %v: OutShape %v, Forward %v", name, in, out, y.Shape[1:])
		}
		return y.Shape[1:]
	}
	for _, c := range []struct {
		name string
		l    nn.Layer
		in   []int
	}{
		{"Dense", nn.NewDense(rng, 6, 4), []int{6}},
		{"ReLU", nn.ReLU{}, []int{2, 3, 3}},
	} {
		check(c.name, c.in, c.l.OutShape(c.in), func(x *tensor.Tensor) (*tensor.Tensor, any) { return c.l.Forward(x, 0) })
	}

	tr := model.NewTrainableMLP(rng, "mlp", 10, []int{14, 12}, 4)
	in := tr.InputShape
	for i := range tr.Blocks {
		seg := tr.SegmentNet(i, i+1)
		in = check(fmt.Sprintf("block %d", i), in, seg.OutShape(in),
			func(x *tensor.Tensor) (*tensor.Tensor, any) { return seg.Forward(x) })
	}
	if !slices.Equal(in, []int{4}) {
		t.Errorf("the last block puts out %v, want the 4 logits", in)
	}
}
