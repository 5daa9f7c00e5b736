package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The label-distribution primitives Eq. 4 was computed with before JSCounts:
// the composition JS(FromCounts(a+b), NewUniform(k)) is JSCounts' reference,
// which it must match bit for bit.

// Distribution is a discrete probability distribution over class labels.
type Distribution []float64

// NewUniform returns the uniform (IID) distribution over k classes.
func NewUniform(k int) Distribution {
	d := make(Distribution, k)
	for i := range d {
		d[i] = 1 / float64(k)
	}
	return d
}

// FromCounts normalizes label counts into a distribution. An all-zero count
// vector yields the uniform distribution.
func FromCounts(counts []int) Distribution {
	d := make(Distribution, len(counts))
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return NewUniform(len(counts))
	}
	for i, c := range counts {
		d[i] = float64(c) / float64(total)
	}
	return d
}

// Mix returns the weighted mixture w·a + (1−w)·b.
func Mix(a, b Distribution, w float64) Distribution {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: Mix length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Distribution, len(a))
	for i := range a {
		out[i] = w*a[i] + (1-w)*b[i]
	}
	return out
}

// KL returns the Kullback–Leibler divergence D(p‖q) in bits (log base 2).
// Terms with p_i = 0 contribute 0; p_i > 0 with q_i = 0 yields +Inf.
func KL(p, q Distribution) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: KL length mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if q[i] == 0 {
			return math.Inf(1)
		}
		s += p[i] * math.Log2(p[i]/q[i])
	}
	return s
}

// JS returns the Jensen–Shannon divergence between p and q in bits.
// It is symmetric and bounded in [0, 1], the properties the paper cites
// for preferring it over raw KL (§5.2, Eq. 4).
func JS(p, q Distribution) float64 {
	m := Mix(p, q, 0.5)
	js := 0.5*KL(p, m) + 0.5*KL(q, m)
	// Clamp tiny negative values from floating-point noise.
	if js < 0 {
		return 0
	}
	return js
}

// referenceJSCounts is the composition JSCounts replaced, as Grouper.Cost
// wrote it: pool the counts, normalize, and take JS against the uniform.
func referenceJSCounts(a, b []int) float64 {
	union := make([]int, len(a))
	copy(union, a)
	for i, n := range b {
		union[i] += n
	}
	return JS(FromCounts(union), NewUniform(len(a)))
}

// TestJSCountsMatchesJS holds the kernel to the composition it replaced, to
// the last bit, over a seeded table: rows of zeros on either side, an
// all-zero union, a single class, k = 1…20 and counts up to 10⁶. It also
// pins the kernel allocation-free.
func TestJSCountsMatchesJS(t *testing.T) {
	type row struct{ a, b []int }
	rows := []row{
		{[]int{0, 0, 0, 0}, []int{0, 0, 0, 0}},
		{[]int{0, 0, 0}, nil},
		{[]int{5, 0, 0, 0}, []int{0, 0, 0, 0}},
		{[]int{0, 0, 0, 0}, []int{0, 3, 0, 1}},
		{[]int{7}, []int{3}},
		{[]int{0}, []int{0}},
		{[]int{0, 0, 9, 0, 0}, []int{0, 0, 4, 0, 0}},
		{[]int{1_000_000, 0}, []int{0, 1_000_000}},
		{[]int{1_000_000, 1, 999_999}, nil},
	}
	rng := rand.New(rand.NewSource(58))
	for k := 1; k <= 20; k++ {
		for _, limit := range []int{1, 10, 600, 1_000_000} {
			for range 4 {
				a, b := make([]int, k), make([]int, k)
				for i := range a {
					// A quarter of the classes empty on each side, as a
					// 2-class shard leaves most of its classes.
					if rng.Intn(4) > 0 {
						a[i] = rng.Intn(limit + 1)
					}
					if rng.Intn(4) > 0 {
						b[i] = rng.Intn(limit + 1)
					}
				}
				rows = append(rows, row{a, b})
			}
		}
	}
	for _, r := range rows {
		got, want := JSCounts(r.a, r.b), referenceJSCounts(r.a, r.b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("JSCounts(%v, %v) = %v (%#x), the composition gives %v (%#x)",
				r.a, r.b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	a, b := rows[len(rows)-1].a, rows[len(rows)-1].b
	if n := testing.AllocsPerRun(100, func() { JSCounts(a, b) }); n != 0 {
		t.Errorf("JSCounts allocates %v objects a call, want 0", n)
	}
}

func TestJSCountsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	JSCounts([]int{1, 2}, []int{1})
}

func ExampleJSCounts() {
	group := []int{45, 5, 0, 0}
	client := []int{45, 5, 0, 0}
	fmt.Printf("JS(group ∪ client, IID) = %.3f bits\n", JSCounts(group, client))
	fmt.Printf("JS(balanced, IID)       = %.3f bits\n", JSCounts([]int{10, 10, 10, 10}, nil))
	// Output:
	// JS(group ∪ client, IID) = 0.415 bits
	// JS(balanced, IID)       = 0.000 bits
}
