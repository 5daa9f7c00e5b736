package nn

import (
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

// convStep runs one Conv2D forward/backward at the given width and returns
// output, input gradient, and parameter gradients.
func convStep(width int, seed int64) (y, dx, wg, bg *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D(rng, 3, 5, 3, 1, 1)
	x := tensor.Randn(rng, 1, 4, 3, 9, 9)
	y, cache := c.Forward(x, width)
	dy := tensor.Randn(rng, 1, y.Shape...)
	return y, c.Backward(cache, dy, width), c.W.Grad, c.B.Grad
}

func TestConv2DParallelBitIdenticalToSerial(t *testing.T) {
	y1, dx1, wg1, bg1 := convStep(1, 11)
	for _, width := range []int{2, 5} {
		y, dx, wg, bg := convStep(width, 11)
		if !sameTensor(y1, y) {
			t.Fatalf("width %d forward output differs from serial", width)
		}
		if !sameTensor(dx1, dx) {
			t.Fatalf("width %d input gradient differs from serial", width)
		}
		if !sameTensor(wg1, wg) || !sameTensor(bg1, bg) {
			t.Fatalf("width %d parameter gradients differ from serial", width)
		}
	}
}

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

// TestConvColsBufferRecycled checks the Forward→Backward buffer hand-off:
// after a warm-up step, a steady-state Conv2D training step must serve its
// im2col matrix (the largest transient) from the pool instead of the heap.
func TestConvColsBufferRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; counts are meaningless")
	}
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(rng, 2, 4, 3, 1, 1)
	x := tensor.Randn(rng, 1, 2, 2, 8, 8)
	y, cache := c.Forward(x, 0)
	dy := tensor.Randn(rng, 1, y.Shape...)
	dx := c.Backward(cache, dy, 0)
	tensor.PutBuf(y)
	tensor.PutBuf(dx)
	allocs := testing.AllocsPerRun(20, func() {
		y, cache := c.Forward(x, 0)
		dx := c.Backward(cache, dy, 0)
		tensor.PutBuf(y)
		tensor.PutBuf(dx)
	})
	// All tensor storage comes from the pool in steady state, and the
	// per-sample loops are typed jobs in the pooled cache, so nothing
	// remains; the bound is slack for a GC clearing a sync.Pool mid-run —
	// versus ~1.6 MB/op before reuse.
	if allocs > 8 {
		t.Fatalf("steady-state Conv2D step allocates %.1f objects/op, want ~0 (buffer reuse broken)", allocs)
	}
}
