package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels: naive triple loops that form every output element
// as one running sum over ascending k, skipping a zero multiplier where the
// production kernels do (MatMul, MatMulAT) and not where they do not
// (MatMulBT). They are the definition of the arithmetic the register-blocked
// kernels must reproduce bit for bit; the A/B tests beside this one compare
// the production kernels only with themselves.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				if av := a.Data[i*k+kk]; av != 0 {
					s += av * b.Data[kk*n+j]
				}
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func refMatMulAT(a, b *Tensor) *Tensor {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				if av := a.Data[kk*m+i]; av != 0 {
					s += av * b.Data[kk*n+j]
				}
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func refMatMulBT(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Rows()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// sameBits reports whether got and want agree element for element in their
// float64 bit patterns (so −0 ≠ +0 and a value one ulp off fails). Two NaNs
// count as equal whatever their payload: which operand's payload an addition
// of two NaNs keeps depends on the operand order the compiler picked, not on
// the order of summation.
func sameBits(got, want *Tensor) (int, bool) {
	if len(got.Data) != len(want.Data) {
		return -1, false
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i, false
		}
	}
	return 0, true
}

// TestKernelsMatchReference is the cross-commit arithmetic pin: a kernel
// that reassociated a sum, fused a multiply-add or dropped the zero skip
// would still equal itself at every parallelism, but not these loops.
func TestKernelsMatchReference(t *testing.T) {
	type shape struct{ m, k, n int }
	shapes := []shape{
		{10, 32, 64}, {10, 64, 10}, // fedround forward: x·W1, h·W2
		{32, 10, 64}, {64, 10, 10}, // the same step's weight-gradient shapes (k = batch)
		{10, 10, 64}, {10, 64, 32}, // and its input-gradient shapes
		{61, 53, 67}, {128, 64, 96}, // above the parallel threshold: row blocks with lo > 0
	}
	// Every remainder mod 4 of k and of n, around one and two blocks of four.
	for k := 1; k <= 9; k++ {
		for n := 1; n <= 9; n++ {
			shapes = append(shapes, shape{3, k, n})
		}
	}
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(17))
	for _, procs := range []int{1, 4} {
		for _, s := range shapes {
			a := Randn(rng, 1, s.m, s.k)  // MatMul's and MatMulBT's left operand
			aT := Randn(rng, 1, s.k, s.m) // MatMulAT's
			b := Randn(rng, 1, s.k, s.n)  // MatMul's and MatMulAT's right operand
			bT := Randn(rng, 1, s.n, s.k) // MatMulBT's
			for i := range a.Data {       // ReLU-like: about half the multipliers are exact zeros
				if rng.Intn(2) == 0 {
					a.Data[i] = 0
				}
				if rng.Intn(2) == 0 {
					aT.Data[i] = 0
				}
			}
			// ±Inf and NaN in b exactly where a multiplier is zero: skipped,
			// they leave that product out of the sum; where the other
			// kernel's multiplier is non-zero they come through.
			for kk := 0; kk < s.k; kk++ {
				if a.Data[kk] == 0 { // row 0 of a
					b.Data[kk*s.n+rng.Intn(s.n)] = special[rng.Intn(len(special))]
				}
				if aT.Data[kk*s.m] == 0 { // column 0 of aT
					b.Data[kk*s.n+rng.Intn(s.n)] = special[rng.Intn(len(special))]
				}
			}
			bT.Data[rng.Intn(len(bT.Data))] = special[rng.Intn(len(special))]

			withParallelism(procs, func() {
				for _, c := range []struct {
					name      string
					got, want *Tensor
				}{
					{"MatMulInto", MatMulInto(New(s.m, s.n), a, b), refMatMul(a, b)},
					{"MatMulATInto", MatMulATInto(New(s.m, s.n), aT, b), refMatMulAT(aT, b)},
					{"MatMulBTInto", MatMulBTInto(New(s.m, s.n), a, bT), refMatMulBT(a, bT)},
				} {
					if i, ok := sameBits(c.got, c.want); !ok {
						t.Fatalf("%s %dx%dx%d procs=%d: element %d is %v, reference %v",
							c.name, s.m, s.k, s.n, procs, i, c.got.Data[i], c.want.Data[i])
					}
				}
			})
		}
	}
}

// TestZeroSkipKeepsInfOut states the zero-skip contract on its own: a zero
// in a opposite an infinity in b contributes nothing to MatMul and MatMulAT
// (0·Inf is skipped, not NaN), in a group of four as in a remainder.
func TestZeroSkipKeepsInfOut(t *testing.T) {
	for _, k := range []int{1, 4, 5, 8} {
		a, aT, b := New(1, k), New(k, 1), New(k, 2)
		b.Fill(1)
		for kk := 0; kk < k; kk++ {
			a.Data[kk], aT.Data[kk] = 1, 1
		}
		a.Data[k-1], aT.Data[k-1] = 0, 0
		b.Data[(k-1)*2] = math.Inf(1)
		for name, got := range map[string]*Tensor{"MatMul": MatMul(a, b), "MatMulAT": MatMulAT(aT, b)} {
			if got.Data[0] != float64(k-1) || got.Data[1] != float64(k-1) {
				t.Fatalf("%s k=%d: got %v, want [%d %d]", name, k, got.Data, k-1, k-1)
			}
		}
	}
}
