package tensor

import (
	"sync"
	"unsafe"
)

// Buffer pool: per-size free lists for the transient tensors the training
// hot path churns through — im2col matrices, matmul scratch, and every
// activation and gradient of a training step. GetBuf/PutBuf are opt-in: a
// pooled tensor that is never returned behaves exactly like one from New and
// is reclaimed by the GC, and PutBuf accepts a tensor from New as readily as
// one from GetBuf.
//
// Who returns what: a kernel's own scratch goes back inside the call that
// drew it (Dense/Conv2D weight-gradient buffers, im2col matrices); a
// layer's outputs belong to whoever called Forward/Backward, and the callers
// that know a tensor is dead return it. For the activations and gradients of
// a forward/backward pass that knowledge is written once, in nn.Pass: the
// single-device step (nn.Network.TrainBatch, Loss, Accuracy) runs one record,
// a 1F1B stage of the distributed pipeline one per micro-batch in flight,
// owning what its link received. Beside that, a pipeline link's writer returns
// a tensor it was given once it is framed, and fl's local update its
// mini-batch buffer. Between steps the scratch lives here, not on a model or a
// pipeline: sync.Pool frees what two GC cycles have not reused, so an idle
// client pins nothing.
//
// Ownership discipline: Put a tensor only when nothing still reads its
// storage. A tensor whose storage is a view of another's (nn.Flatten shares
// Data with its input; the pipeline's micro-batches are views of the caller's
// batch) must not go back while the other is in use — SharesStorage is the
// test.

var bufPools sync.Map // element count → *sync.Pool of *Tensor

func poolFor(n int) *sync.Pool {
	if p, ok := bufPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := bufPools.LoadOrStore(n, &sync.Pool{
		New: func() any { return &Tensor{Data: make([]float64, n)} },
	})
	return p.(*sync.Pool)
}

// GetBuf returns a zero-filled pooled tensor with the given shape.
func GetBuf(shape ...int) *Tensor {
	t := GetBufUninit(shape...)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// GetBufUninit returns a pooled tensor with the given shape whose contents
// are unspecified (possibly stale). Use only as a destination that will be
// fully overwritten, e.g. by the MatMul*Into kernels.
func GetBufUninit(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	t := poolFor(n).Get().(*Tensor)
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// PutBuf returns t to the pool for reuse by a later GetBuf of the same
// element count. The caller must not use t afterwards.
func PutBuf(t *Tensor) {
	if t == nil || len(t.Data) == 0 {
		return
	}
	poolFor(len(t.Data)).Put(t)
}

// SharesStorage reports whether a and b overlap in memory. A view layer hands
// its input's storage on under a new header (nn.Flatten shares Data with its
// input in both directions), so what a stack of layers returns can be a
// tensor it was given in disguise — the caller's batch, an activation a later Backward
// still reads, a tensor still queued on a link. Such a tensor must not go
// back to the pool while the other is live.
func SharesStorage(a, b *Tensor) bool {
	if a == nil || b == nil || len(a.Data) == 0 || len(b.Data) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a.Data[0])), uintptr(unsafe.Pointer(&b.Data[0]))
	return a0 < b0+8*uintptr(len(b.Data)) && b0 < a0+8*uintptr(len(a.Data))
}
