package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformAndCounts(t *testing.T) {
	u := NewUniform(4)
	for _, v := range u {
		if v != 0.25 {
			t.Fatalf("uniform entry %v, want 0.25", v)
		}
	}
	d := FromCounts([]int{1, 3, 0, 0})
	if d[0] != 0.25 || d[1] != 0.75 {
		t.Fatalf("FromCounts got %v", d)
	}
	z := FromCounts([]int{0, 0})
	if z[0] != 0.5 {
		t.Fatal("zero counts must yield uniform")
	}
}

func TestKLBasics(t *testing.T) {
	p := Distribution{1, 0}
	q := Distribution{0.5, 0.5}
	if got := KL(p, q); math.Abs(got-1) > 1e-12 {
		t.Fatalf("KL([1,0]‖uniform) = %v, want 1 bit", got)
	}
	if got := KL(p, p); got != 0 {
		t.Fatalf("KL(p‖p) = %v, want 0", got)
	}
	if got := KL(q, p); !math.IsInf(got, 1) {
		t.Fatalf("KL with unsupported mass should be +Inf, got %v", got)
	}
}

func TestJSProperties(t *testing.T) {
	p := Distribution{1, 0, 0, 0}
	q := Distribution{0, 1, 0, 0}
	// Disjoint supports → maximum JS = 1 bit.
	if got := JS(p, q); math.Abs(got-1) > 1e-12 {
		t.Fatalf("JS(disjoint) = %v, want 1", got)
	}
	if got := JS(p, p); got != 0 {
		t.Fatalf("JS(p,p) = %v, want 0", got)
	}
}

// Properties the paper cites for choosing JS over KL: symmetry and [0,1].
func TestJSSymmetryBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDist(rng, 6)
		q := randomDist(rng, 6)
		a, b := JS(p, q), JS(q, p)
		return math.Abs(a-b) < 1e-12 && a >= 0 && a <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomDist(rng *rand.Rand, k int) Distribution {
	counts := make([]int, k)
	for i := range counts {
		counts[i] = rng.Intn(20)
	}
	return FromCounts(counts)
}

func TestMixLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mix(Distribution{1}, Distribution{0.5, 0.5}, 0.5)
}

func TestKMeans1DWellSeparated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var values []float64
	for i := 0; i < 30; i++ {
		values = append(values, 10+rng.Float64())
	}
	for i := 0; i < 30; i++ {
		values = append(values, 50+rng.Float64())
	}
	for i := 0; i < 30; i++ {
		values = append(values, 90+rng.Float64())
	}
	assign, centers := KMeans1D(rng, values, 3)
	if len(centers) != 3 {
		t.Fatalf("got %d centers", len(centers))
	}
	// Centers sorted ascending near 10.5, 50.5, 90.5.
	if math.Abs(centers[0]-10.5) > 1 || math.Abs(centers[1]-50.5) > 1 || math.Abs(centers[2]-90.5) > 1 {
		t.Fatalf("centers %v", centers)
	}
	for i, a := range assign {
		want := i / 30
		if a != want {
			t.Fatalf("value %d (%.1f) assigned to %d, want %d", i, values[i], a, want)
		}
	}
}

func TestKMeansMoreClustersThanPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	assign, centers := KMeans1D(rng, []float64{1, 2}, 5)
	if len(centers) != 2 || len(assign) != 2 {
		t.Fatalf("k must clamp to n: got %d centers", len(centers))
	}
}

func TestKMeansDeterminism(t *testing.T) {
	values := []float64{5, 1, 9, 2, 8, 3, 7, 4, 6}
	a1, c1 := KMeans1D(rand.New(rand.NewSource(3)), values, 3)
	a2, c2 := KMeans1D(rand.New(rand.NewSource(3)), values, 3)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("assignments not deterministic")
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("centers not deterministic")
		}
	}
}

// Property: K-means centers are always sorted ascending, and every point is
// assigned to its nearest center.
func TestKMeansInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64() * 100
		}
		k := 1 + rng.Intn(5)
		assign, centers := KMeans1D(rng, values, k)
		for i := 1; i < len(centers); i++ {
			if centers[i] < centers[i-1] {
				return false
			}
		}
		for i, v := range values {
			d := math.Abs(v - centers[assign[i]])
			for _, c := range centers {
				if math.Abs(v-c) < d-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
