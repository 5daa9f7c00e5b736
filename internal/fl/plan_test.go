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
// flat shards with an MLP and on image-shaped shards with a CNN, shard
// lengths the batch size does not divide (so every epoch ends in a short
// batch and the next begins in the same buffer), and a batch size larger
// than a shard.
func TestLocalTrainMatchesBatchesPath(t *testing.T) {
	cfg := fastConfig() // 2 local epochs, batch 10
	gen := rand.New(rand.NewSource(21))
	flat := data.FashionLike(gen, 4*47)
	image := data.ImageLike(gen, 4*47, 12, 4, 0.4)
	cnn := nn.NewNetwork(nn.NewConv2D(gen, 1, 4, 3, 1, 1), nn.ReLU{}, nn.MaxPool2D{K: 2, Stride: 2},
		nn.Flatten{}, nn.NewDense(gen, 4*6*6, 4))
	big := cfg
	big.BatchSize = 64 // > 47: one short batch per epoch

	for name, pop := range map[string]*Population{
		"mlp/flat":      populationOver(gen, flat, cfg, nil),
		"cnn/image":     populationOver(gen, image, cfg, cnn),
		"mlp/bigbatch":  populationOver(gen, flat, big, nil),
		"cnn/one-epoch": populationOver(gen, image, func() Config { c := cfg; c.LocalEpochs = 1; return c }(), cnn.Clone()),
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

// populationOver builds a 4-client IID population over d, with the default
// MLP when proto is nil.
func populationOver(rng *rand.Rand, d *data.Dataset, cfg Config, proto *nn.Network) *Population {
	_, test := d.Split(0.9)
	tx, ty := test.Materialize()
	shards := data.PartitionIID(rng, d, 4)
	if proto == nil {
		return NewPopulation(rng, shards, tx, ty, cfg)
	}
	return NewPopulationWithProto(rng, shards, tx, ty, cfg, proto)
}
