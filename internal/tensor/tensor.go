// Package tensor provides a minimal dense float64 tensor used by the Eco-FL
// neural-network substrate. Tensors are row-major and intentionally simple:
// the federated-learning simulation trains small models where clarity and
// determinism matter more than raw FLOP throughput.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float64 array with an explicit shape.
// The zero value is an empty tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// Randn returns a tensor with entries drawn i.i.d. from N(0, std²) using rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows returns the size of the leading dimension (1 for scalars).
func (t *Tensor) Rows() int {
	if len(t.Shape) == 0 {
		return 1
	}
	return t.Shape[0]
}

// Cols returns the product of all dimensions after the first.
func (t *Tensor) Cols() int {
	if len(t.Shape) == 0 {
		return 1
	}
	c := 1
	for _, d := range t.Shape[1:] {
		c *= d
	}
	return c
}

// Set assigns the element at a 2-D index.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols()+j] = v }

// RowView returns row i of the tensor (viewed 2-D) as a slice sharing t's
// storage. Prefer it over Set in per-element loops: it hoists the Cols()
// stride computation out of the loop and indexes the row directly.
func (t *Tensor) RowView(i int) []float64 {
	c := t.Cols()
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies every element by a in place and returns t.
func (t *Tensor) Scale(a float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= a
	}
	return t
}

// AddScaled adds a*src to t element-wise in place (axpy) and returns t.
func (t *Tensor) AddScaled(a float64, src *Tensor) *Tensor {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: AddScaled size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	axpy(t.Data, a, src.Data)
	return t
}

// Add adds src to t element-wise in place and returns t.
func (t *Tensor) Add(src *Tensor) *Tensor { return t.AddScaled(1, src) }

// Hadamard multiplies t by src element-wise in place and returns t.
func (t *Tensor) Hadamard(src *Tensor) *Tensor {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: Hadamard size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	for i, v := range src.Data {
		t.Data[i] *= v
	}
	return t
}

// The three matmul kernels share one structure. Each has a single body, a
// row-range function that computes output rows [lo, hi); MatMul*Into hands it
// to runRows, which calls it directly for a small product and splits the rows
// across the worker pool for a large one. Workers own disjoint rows and every
// output element accumulates its k products in ascending-k order whatever the
// row range, so a result is bit-identical at any parallelism.
//
// Every body is made of two primitives that add scaled rows of b to an output
// row: axpy (one row) and axpy4 (four, with one load and one store per output
// element instead of four). Each has a Go body, below, and on amd64 with AVX2
// an assembly body (kernels_amd64.s) that forms every element the same way —
// a separate multiply and add per product, in argument order. The primitives
// change how many elements are in flight, never the order in which one
// element's sum is formed. There is no fused multiply-add and no
// reassociation: the results equal a naive ascending-k triple loop bit for
// bit, under either body (TestKernelsMatchReference).

// axpyGo is axpy's Go body; len(b) must be at least len(o).
func axpyGo(o []float64, av float64, b []float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += av * b[j]
	}
}

// axpy4Go is axpy4's Go body.
func axpy4Go(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		v := o[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		o[j] = v
	}
}

// rows4 returns rows kk…kk+3 of the row-major matrix data, each n wide.
func rows4(data []float64, kk, n int) (r0, r1, r2, r3 []float64) {
	return data[kk*n : (kk+1)*n], data[(kk+1)*n : (kk+2)*n],
		data[(kk+2)*n : (kk+3)*n], data[(kk+3)*n : (kk+4)*n]
}

// accumulateNonzero adds av·b_kk to the output row o for every multiplier
// av = a[kk·stride] with kk in [0, k), ascending, where b_kk is row kk of the
// row-major matrix b, len(o) wide. A zero multiplier is skipped outright — it
// contributes nothing, and skipping it keeps 0·Inf from turning into NaN.
// About half of a ReLU output is zero, in no pattern a branch predictor can
// learn, so the non-zero multipliers' kk are first compacted into ks without
// a branch, a chunk at a time. Then they go to axpy4 four at a time,
// ascending, the last one to three to axpy, so each element sees exactly the
// additions of one axpy per non-zero multiplier, in the same order.
func accumulateNonzero(o, a []float64, stride, k int, b []float64) {
	n := len(o)
	var ks [64]int
	g := 0 // ks[:g] are the compacted kk not yet added, ascending
	for lo := 0; lo < k; {
		hi := min(k, lo+len(ks)-g)
		for kk := lo; kk < hi; kk++ {
			ks[g] = kk
			u := math.Float64bits(a[kk*stride]) << 1 // 0 for ±0 only; NaN is non-zero
			g += int((u | -u) >> 63)
		}
		lo = hi
		full := g &^ 3
		for j := 0; j < full; j += 4 {
			k0, k1, k2, k3 := ks[j], ks[j+1], ks[j+2], ks[j+3]
			axpy4(o, a[k0*stride], a[k1*stride], a[k2*stride], a[k3*stride],
				b[k0*n:], b[k1*n:], b[k2*n:], b[k3*n:])
		}
		g = copy(ks[:], ks[full:g])
	}
	for _, kk := range ks[:g] {
		axpy(o, a[kk*stride], b[kk*n:])
	}
}

// setShape2D points dst at an (m, n) view, reusing its Shape slice when
// possible so reshaping a pooled buffer does not allocate.
func setShape2D(dst *Tensor, m, n int) {
	dst.Shape = append(dst.Shape[:0], m, n)
}

// MatMulInto computes a×b for 2-D tensors (m×k)·(k×n) → (m×n), overwriting
// dst (which must hold exactly m·n elements and not alias a or b) and
// returning it. Output rows are split across the package worker pool when
// the operation is large enough; the result is bit-identical at any
// parallelism.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != k {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %v × %v", a.Shape, b.Shape))
	}
	if len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: MatMulInto dst has %d elements, want %d", len(dst.Data), m*n))
	}
	setShape2D(dst, m, n)
	runRows(matMulRows, dst, a, b, m, 2*m*k*n)
	return dst
}

// matMulRows is MatMulInto's body. ikj loop order keeps the inner loop
// streaming over contiguous memory.
func matMulRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Cols(), b.Cols()
	for i := lo; i < hi; i++ {
		oi := dst.Data[i*n : (i+1)*n]
		for j := range oi {
			oi[j] = 0
		}
		accumulateNonzero(oi, a.Data[i*k:(i+1)*k], 1, k, b.Data)
	}
}

// MatMul returns a×b for 2-D tensors (m×k)·(k×n) → (m×n).
func MatMul(a, b *Tensor) *Tensor {
	return MatMulInto(New(a.Rows(), b.Cols()), a, b)
}

// MatMulATInto computes aᵀ×b for 2-D tensors (k×m)ᵀ·(k×n) → (m×n) into dst
// (m·n elements, no aliasing), returning dst. Parallel over output rows;
// bit-identical at any parallelism (see MatMulInto).
func MatMulATInto(dst, a, b *Tensor) *Tensor {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != k {
		panic(fmt.Sprintf("tensor: MatMulAT inner mismatch %v × %v", a.Shape, b.Shape))
	}
	if len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: MatMulATInto dst has %d elements, want %d", len(dst.Data), m*n))
	}
	setShape2D(dst, m, n)
	runRows(matMulATRows, dst, a, b, m, 2*m*k*n)
	return dst
}

// matMulATRows is MatMulATInto's body: MatMulInto's, with output row i
// taking its multipliers down column i of a.
func matMulATRows(dst, a, b *Tensor, lo, hi int) {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	for i := lo; i < hi; i++ {
		oi := dst.Data[i*n : (i+1)*n]
		for j := range oi {
			oi[j] = 0
		}
		accumulateNonzero(oi, a.Data[i:], m, k, b.Data)
	}
}

// MatMulBTInto computes a×bᵀ for 2-D tensors (m×k)·(n×k)ᵀ → (m×n) into dst
// (m·n elements, no aliasing), returning dst. Parallel over output rows;
// bit-identical at any parallelism (see MatMulInto).
func MatMulBTInto(dst, a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Rows()
	if b.Cols() != k {
		panic(fmt.Sprintf("tensor: MatMulBT inner mismatch %v × %v", a.Shape, b.Shape))
	}
	if len(dst.Data) != m*n {
		panic(fmt.Sprintf("tensor: MatMulBTInto dst has %d elements, want %d", len(dst.Data), m*n))
	}
	setShape2D(dst, m, n)
	// Every output element is a dot product of a row of a with a row of b.
	// With b packed transposed, once and before any fan-out, output rows are
	// formed the way MatMulInto forms them — each element one running sum over
	// ascending kk from +0, as a dot product is — with the vector width across
	// output columns.
	bt := GetBufUninit(k, n)
	for j := 0; j < n; j++ {
		for kk, v := range b.Data[j*k : (j+1)*k] {
			bt.Data[kk*n+j] = v
		}
	}
	runRows(matMulBTRows, dst, a, bt, m, 2*m*k*n)
	PutBuf(bt)
	return dst
}

// matMulBTRows is MatMulBTInto's body, over b packed transposed (bt, k×n).
// Unlike MatMulInto it has no zero skip: a dot product never had one, so 0·Inf
// is NaN here, as it always was.
func matMulBTRows(dst, a, bt *Tensor, lo, hi int) {
	k, n := a.Cols(), bt.Cols()
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		oi := dst.Data[i*n : (i+1)*n]
		for j := range oi {
			oi[j] = 0
		}
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			b0, b1, b2, b3 := rows4(bt.Data, kk, n)
			axpy4(oi, ai[kk], ai[kk+1], ai[kk+2], ai[kk+3], b0, b1, b2, b3)
		}
		for ; kk < k; kk++ {
			axpy(oi, ai[kk], bt.Data[kk*n:])
		}
	}
}

// ArgmaxRow returns the index of the maximum element in row i.
func (t *Tensor) ArgmaxRow(i int) int {
	row := t.RowView(i)
	best, bv := 0, math.Inf(-1)
	for j, v := range row {
		if v > bv {
			best, bv = j, v
		}
	}
	return best
}

// Equal reports whether two tensors have identical shape and identical data.
func Equal(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether two tensors have equal shape and element-wise
// absolute difference at most tol. Any NaN element (in either tensor) makes
// the comparison fail: NaN is never almost-equal to anything, including NaN.
func AlmostEqual(a, b *Tensor, tol float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > tol || math.IsNaN(d) {
			return false
		}
	}
	return true
}
