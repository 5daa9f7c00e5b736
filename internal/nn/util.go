package nn

import (
	"fmt"
	"math"

	"ecofl/internal/tensor"
)

// pooledCopy is t.Clone() drawn from the tensor pool: the copy is the
// caller's to return with tensor.PutBuf once it is dead.
func pooledCopy(t *tensor.Tensor) *tensor.Tensor {
	c := tensor.GetBufUninit(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// ClipGradients scales all gradients down so their global L2 norm is at
// most maxNorm, returning the pre-clip norm. A no-op when already within
// the bound or when maxNorm ≤ 0.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		sq += p.Grad.Norm2()
	}
	norm := math.Sqrt(sq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
	return norm
}

// SoftmaxCrossEntropyLS is SoftmaxCrossEntropy with label smoothing: the
// target distribution puts 1−ε on the true class and ε/(K−1) on the rest,
// a standard regularizer for the over-confident heads small models grow on
// easy shards. The gradient is a pooled tensor the caller owns, as there.
func SoftmaxCrossEntropyLS(logits *tensor.Tensor, labels []int, eps float64) (float64, *tensor.Tensor) {
	if eps == 0 {
		return SoftmaxCrossEntropy(logits, labels)
	}
	rows, cols := logits.Rows(), logits.Cols()
	if rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logit rows vs %d labels", rows, len(labels)))
	}
	if eps < 0 || eps >= 1 || cols < 2 {
		panic("nn: label smoothing needs 0 ≤ ε < 1 and ≥2 classes")
	}
	off := eps / float64(cols-1)
	on := 1 - eps
	grad := tensor.GetBufUninit(rows, cols) // every element is written below
	var loss float64
	for i := 0; i < rows; i++ {
		row := logits.Data[i*cols : (i+1)*cols]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		g := grad.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			e := math.Exp(v - maxv)
			g[j] = e
			sum += e
		}
		for j := range g {
			g[j] /= sum
		}
		for j := range g {
			target := off
			if j == labels[i] {
				target = on
			}
			loss += -target * math.Log(math.Max(g[j], 1e-300))
			g[j] -= target
		}
	}
	n := float64(rows)
	grad.Scale(1 / n)
	return loss / n, grad
}
