package fl

import (
	"math"
	"math/rand"
	"testing"

	"ecofl/internal/data"
	"ecofl/internal/nn"
)

// batchesLocalTrain is the local update as it was before the index plan:
// every epoch materialised by Subset.Batches, every batch its own tensor, on
// a network of its own. LocalTrain must stay bit-identical to it.
func batchesLocalTrain(p *Population, rng *rand.Rand, c *Client, ref []float64, mu float64) (update []float64, meanLoss float64) {
	net := p.Proto.Clone()
	net.SetFlatWeights(ref)
	opt := &nn.SGD{LR: p.Config.LR, Mu: mu, Global: ref}
	var lossSum float64
	batches := 0
	for e := 0; e < p.Config.LocalEpochs; e++ {
		for _, b := range c.Train.Batches(rng, p.Config.BatchSize) {
			lossSum += net.TrainBatch(b.X, b.Y, opt)
			batches++
		}
	}
	return net.FlatWeights(), lossSum / float64(batches)
}

// TestLocalTrainMatchesBatchesPath trains clients through LocalTrain (index
// plan, one gathered buffer) and through the materialising reference from
// identically seeded rngs: same weights, same LastLoss, same rng state — on
// shard lengths the batch size does not divide (so every epoch ends in a
// short batch and the next begins in the same buffer), with two epochs and
// with one, and with a batch size larger than a shard.
func TestLocalTrainMatchesBatchesPath(t *testing.T) {
	cfg := fastConfig() // 2 local epochs, batch 10
	gen := rand.New(rand.NewSource(21))
	flat := data.FashionLike(gen, 4*47)
	big := cfg
	big.BatchSize = 64 // > 47: one short batch per epoch
	one := cfg
	one.LocalEpochs = 1

	for name, pop := range map[string]*Population{
		"mlp/flat":      populationOver(gen, flat, cfg),
		"mlp/bigbatch":  populationOver(gen, flat, big),
		"mlp/one-epoch": populationOver(gen, flat, one),
	} {
		ref := pop.GlobalInit()
		rngA, rngB := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
		for _, c := range pop.Clients[:2] {
			if c.Train.Len()%pop.Config.BatchSize == 0 {
				t.Fatalf("%s: shard of %d divides into batches of %d; the test wants a short last batch", name, c.Train.Len(), pop.Config.BatchSize)
			}
			want, wantLoss := batchesLocalTrain(pop, rngA, c, ref, pop.Config.Mu)
			got := pop.LocalTrain(rngB, c, ref, pop.Config.Mu)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s client %d: weight %d is %v, reference %v", name, c.ID, i, got[i], want[i])
				}
			}
			if c.LastLoss != wantLoss {
				t.Fatalf("%s client %d: LastLoss %v, reference %v", name, c.ID, c.LastLoss, wantLoss)
			}
		}
		if rngA.Int63() != rngB.Int63() {
			t.Fatalf("%s: LocalTrain consumed the rng differently from the Batches path", name)
		}
	}
}

// populationOver builds a 4-client IID population over d.
func populationOver(rng *rand.Rand, d *data.Dataset, cfg Config) *Population {
	_, test := d.Split(0.9)
	tx, ty := test.Materialize()
	return NewPopulation(rng, data.PartitionIID(rng, d, 4), tx, ty, cfg)
}
