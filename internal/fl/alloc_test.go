//go:build !race

// Allocation counts are meaningless under the race detector, whose
// instrumentation allocates.

package fl

import (
	"math/rand"
	"testing"

	"ecofl/internal/data"
)

// TestLocalTrainAllocBudget pins what one local update allocates once the
// pools are warm: nothing. The index plan and the label slice are pooled, the
// optimizer lives on the stack, and the update returned is the client's own
// weight slab; no tensor is drawn per mini-batch, nor anything per training
// step (nn.TestTrainBatchAllocFree). A regression here multiplies by
// clients × rounds: the parent of this test's first commit spent 1,712
// allocations on the same update.
func TestLocalTrainAllocBudget(t *testing.T) {
	const budget = 0
	cfg := fastConfig() // 2 local epochs, batch 10, µ = 0.05
	// Four shards of 200 samples, then of 205: a short last batch.
	for _, samples := range []int{800, 820} {
		rng := rand.New(rand.NewSource(5))
		ds := data.FashionLike(rng, samples)
		_, test := ds.Split(0.9)
		tx, ty := test.Materialize()
		pop := NewPopulation(rng, data.PartitionIID(rng, ds, 4), tx, ty, cfg)
		c, ref := pop.Clients[0], pop.GlobalInit()
		pop.LocalTrain(rng, c, ref, cfg.Mu) // warm the pool
		got := testing.AllocsPerRun(20, func() { pop.LocalTrain(rng, c, ref, cfg.Mu) })
		if got > budget {
			t.Errorf("LocalTrain on a %d-sample shard allocates %.1f objects, budget %d", c.Train.Len(), got, budget)
		}
	}
}
