package fl

import (
	"math/rand"
	"testing"
)

func BenchmarkLocalTrain(b *testing.B) {
	pop := testPopulation(1, 10, fastConfig())
	rng := rand.New(rand.NewSource(1))
	ref := pop.GlobalInit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop.LocalTrain(rng, pop.Clients[i%10], ref, pop.Config.Mu)
	}
}

func BenchmarkWeightedAverage20(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vectors := make([][]float64, 20)
	weights := make([]float64, 20)
	for i := range vectors {
		vectors[i] = make([]float64, 3000)
		for j := range vectors[i] {
			vectors[i][j] = rng.Float64()
		}
		weights[i] = 1 + rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedAverage(vectors, weights)
	}
}

// BenchmarkTopKDelta is the sparse push's selection at the fleet's shape
// (100 000 weights → 1 000): a dense delta the sampled threshold fits, and
// mass off the sample's stride, which sends it to the histogram's.
func BenchmarkTopKDelta(b *testing.B) {
	const stride = 100_000 / sampleN
	for _, c := range []struct {
		name  string
		delta func(i int, z float64) float64
	}{
		{"dense", func(_ int, z float64) float64 { return z }},
		{"fallback", func(i int, z float64) float64 { return z * float64(min(i%stride, 1)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, ref := fleetDelta(1, c.delta)
			idx, vals := TopKDelta(w, ref, 1000, nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, vals = TopKDelta(w, ref, 1000, idx, vals)
			}
		})
	}
}
