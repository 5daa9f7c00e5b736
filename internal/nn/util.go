package nn

import "ecofl/internal/tensor"

// pooledCopy is t.Clone() drawn from the tensor pool: the copy is the
// caller's to return with tensor.PutBuf once it is dead.
func pooledCopy(t *tensor.Tensor) *tensor.Tensor {
	c := tensor.GetBufUninit(t.Shape...)
	copy(c.Data, t.Data)
	return c
}
