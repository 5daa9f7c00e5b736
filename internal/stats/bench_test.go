package stats

import (
	"math/rand"
	"testing"
)

func BenchmarkJS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomDist(rng, 10)
	q := randomDist(rng, 10)
	for i := 0; i < b.N; i++ {
		JS(p, q)
	}
}

func BenchmarkKMeans1D300(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 300)
	for i := range values {
		values[i] = rng.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans1D(rand.New(rand.NewSource(int64(i))), values, 5)
	}
}

// BenchmarkJSCounts is Eq. 4's divergence at the grouping's shape: a group's
// counts pooled with a candidate's, over 10 classes.
func BenchmarkJSCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, c := make([]int, 10), make([]int, 10)
	for i := range g {
		g[i], c[i] = rng.Intn(600), rng.Intn(40)
	}
	b.ReportAllocs()
	for b.Loop() {
		JSCounts(g, c)
	}
}
