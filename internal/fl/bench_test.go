package fl

import (
	"math/rand"
	"testing"

	"ecofl/internal/data"
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

// BenchmarkInitialGrouping is §5.2's initial grouping at the paper's scale,
// the fleet the benchmark's sim-ecofl workload builds (experiments.Full:
// 300 clients of two classes each on the fashion-mnist preset, λ = 500,
// RT 15, 5 groups): K-means on latency, then some 2×10⁴ Eq. 4 costs. It is
// the layer number beside that workload's fl.grouping_s.
func BenchmarkInitialGrouping(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := data.FashionLike(rng, 12000)
	_, test := ds.Split(0.85)
	shards := data.PartitionByClasses(rng, ds, 300, 2)
	tx, ty := test.Materialize()
	pop := NewPopulation(rng, shards, tx, ty, Config{Seed: 1, Lambda: 500, NumGroups: 5, RTThreshold: 15})
	gr := &Grouper{Lambda: 500, RT: 15, NumClasses: pop.TestClasses()}
	gr.InitialGrouping(rand.New(rand.NewSource(1)), pop.Clients, 5) // count the shards' labels
	b.ReportAllocs()
	for b.Loop() {
		gr.InitialGrouping(rand.New(rand.NewSource(1)), pop.Clients, 5)
	}
}
