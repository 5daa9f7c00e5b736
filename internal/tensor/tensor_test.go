package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.Rows() != 2 || a.Cols() != 12 {
		t.Fatalf("Rows/Cols = %d/%d, want 2/12", a.Rows(), a.Cols())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dim")
		}
	}()
	New(2, -1)
}

func TestAtSet(t *testing.T) {
	a := New(3, 4)
	a.Set(2, 3, 7.5)
	if a.RowView(2)[3] != 7.5 {
		t.Fatalf("row 2, column 3 = %v, want 7.5", a.RowView(2)[3])
	}
	if a.Data[2*4+3] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := &Tensor{Shape: []int{2, 2}, Data: []float64{1, 2, 3, 4}}
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must deep-copy data")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := &Tensor{Shape: []int{2, 3}, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Tensor{Shape: []int{3, 2}, Data: []float64{7, 8, 9, 10, 11, 12}}
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// transpose returns an explicit transpose of a 2-D tensor.
func transpose(a *Tensor) *Tensor {
	out := New(a.Cols(), a.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			out.Set(j, i, a.RowView(i)[j])
		}
	}
	return out
}

// MatMulATInto(a,b) must equal MatMul(aᵀ,b); MatMulBTInto(a,b) must equal MatMul(a,bᵀ).
func TestTransposedMatMulVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 3)
	b := Randn(rng, 1, 4, 5)
	if got, want := MatMulATInto(New(a.Cols(), b.Cols()), a, b), MatMul(transpose(a), b); !AlmostEqual(got, want, 1e-12) {
		t.Fatal("MatMulAT disagrees with explicit transpose")
	}
	c := Randn(rng, 1, 5, 3) // (4×3)·(5×3)ᵀ → 4×5
	if got, want := MatMulBTInto(New(a.Rows(), c.Rows()), a, c), MatMul(a, transpose(c)); !AlmostEqual(got, want, 1e-12) {
		t.Fatal("MatMulBT disagrees with explicit transpose")
	}
}

func TestAxpyOps(t *testing.T) {
	a := &Tensor{Shape: []int{2}, Data: []float64{1, 2}}
	b := &Tensor{Shape: []int{2}, Data: []float64{10, 20}}
	a.AddScaled(0.5, b)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("AddScaled got %v", a.Data)
	}
	a.AddScaled(-1, b)
	if a.Data[0] != -4 || a.Data[1] != -8 {
		t.Fatalf("AddScaled(-1) got %v", a.Data)
	}
	a.Scale(-1)
	if a.Data[0] != 4 || a.Data[1] != 8 {
		t.Fatalf("Scale got %v", a.Data)
	}
}

func TestArgmaxRow(t *testing.T) {
	a := &Tensor{Shape: []int{2, 3}, Data: []float64{0, 5, 2, 9, 1, 3}}
	if a.ArgmaxRow(0) != 1 {
		t.Fatalf("ArgmaxRow(0) = %d, want 1", a.ArgmaxRow(0))
	}
	if a.ArgmaxRow(1) != 0 {
		t.Fatalf("ArgmaxRow(1) = %d, want 0", a.ArgmaxRow(1))
	}
}

func TestHadamard(t *testing.T) {
	a := &Tensor{Shape: []int{3}, Data: []float64{1, 2, 3}}
	b := &Tensor{Shape: []int{3}, Data: []float64{4, 5, 6}}
	a.Hadamard(b)
	want := []float64{4, 10, 18}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Hadamard[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestEqualAndAlmostEqual(t *testing.T) {
	a := &Tensor{Shape: []int{2}, Data: []float64{1, 2}}
	b := &Tensor{Shape: []int{1, 2}, Data: []float64{1, 2}}
	if Equal(a, b) {
		t.Fatal("Equal must compare shapes")
	}
	c := &Tensor{Shape: []int{2}, Data: []float64{1, 2.0000001}}
	if Equal(a, c) {
		t.Fatal("Equal must compare exact data")
	}
	if !AlmostEqual(a, c, 1e-6) {
		t.Fatal("AlmostEqual within tol must hold")
	}
	if AlmostEqual(a, c, 1e-9) {
		t.Fatal("AlmostEqual outside tol must fail")
	}
}

// Property: (A·B)·v == A·(B·v) for random matrices — associativity of our
// matmul against itself, a strong correctness signal.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 4, 2)
		v := Randn(rng, 1, 2, 1)
		left := MatMul(MatMul(a, b), v)
		right := MatMul(a, MatMul(b, v))
		return AlmostEqual(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale(-1) twice is identity.
func TestScaleInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := Randn(rng, 2, 7)
		orig := x.Clone()
		x.Scale(-1).Scale(-1)
		return Equal(x, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandnDeterminism(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(7)), 0.1, 5, 5)
	b := Randn(rand.New(rand.NewSource(7)), 0.1, 5, 5)
	if !Equal(a, b) {
		t.Fatal("Randn with same seed must be deterministic")
	}
	var std float64
	for _, v := range a.Data {
		std += v * v
	}
	std = math.Sqrt(std / float64(a.Len()))
	if std <= 0 || std > 0.5 {
		t.Fatalf("Randn std wildly off: %v", std)
	}
}
