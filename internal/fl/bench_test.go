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
