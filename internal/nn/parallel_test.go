package nn

import (
	"math/rand"
	"testing"

	"ecofl/internal/tensor"
)

// withParallelism runs fn with the tensor knob set to n, restoring the
// previous setting afterwards.
func withParallelism(n int, fn func()) {
	prev := tensor.Parallelism()
	tensor.SetParallelism(n)
	defer tensor.SetParallelism(prev)
	fn()
}

// convStep runs one Conv2D forward/backward at the given parallelism and
// returns output, input gradient, and parameter gradients.
func convStep(procs int, seed int64) (y, dx, wg, bg *tensor.Tensor) {
	withParallelism(procs, func() {
		rng := rand.New(rand.NewSource(seed))
		c := NewConv2D(rng, 3, 5, 3, 1, 1)
		x := tensor.Randn(rng, 1, 4, 3, 9, 9)
		var cache Cache
		y, cache = c.Forward(x)
		dy := tensor.Randn(rng, 1, y.Shape...)
		dx = c.Backward(cache, dy)
		wg, bg = c.W.Grad, c.B.Grad
	})
	return
}

func TestConv2DParallelBitIdenticalToSerial(t *testing.T) {
	y1, dx1, wg1, bg1 := convStep(1, 11)
	for _, procs := range []int{2, 5} {
		y, dx, wg, bg := convStep(procs, 11)
		if !sameTensor(y1, y) {
			t.Fatalf("parallel(%d) forward output differs from serial", procs)
		}
		if !sameTensor(dx1, dx) {
			t.Fatalf("parallel(%d) input gradient differs from serial", procs)
		}
		if !sameTensor(wg1, wg) || !sameTensor(bg1, bg) {
			t.Fatalf("parallel(%d) parameter gradients differ from serial", procs)
		}
	}
}

func TestTrainBatchParallelBitIdenticalToSerial(t *testing.T) {
	train := func(procs int) []float64 {
		var w []float64
		withParallelism(procs, func() {
			rng := rand.New(rand.NewSource(3))
			net := NewMLP(rng, 24, 48, 10)
			x := tensor.Randn(rng, 1, 16, 24)
			labels := make([]int, 16)
			for i := range labels {
				labels[i] = i % 10
			}
			opt := &SGD{LR: 0.05, Momentum: 0.9}
			for step := 0; step < 5; step++ {
				net.TrainBatch(x, labels, opt)
			}
			w = net.FlatWeights()
		})
		return w
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
	y, cache := c.Forward(x)
	dy := tensor.Randn(rng, 1, y.Shape...)
	dx := c.Backward(cache, dy)
	tensor.PutBuf(y)
	tensor.PutBuf(dx)
	allocs := testing.AllocsPerRun(20, func() {
		y, cache := c.Forward(x)
		dx := c.Backward(cache, dy)
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
