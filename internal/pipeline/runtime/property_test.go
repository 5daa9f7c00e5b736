package runtime

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ecofl/internal/model"
	"ecofl/internal/nn"
)

// Property: for random architectures, random cut sets, and random
// micro-batch sizes, one pipelined sync-round produces the same update as
// one sequential mini-batch step — the defining guarantee of 1F1B-Sync.
func TestRandomizedGradientEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 2 + rng.Intn(4)
		widths := make([]int, depth)
		for i := range widths {
			widths[i] = 6 + rng.Intn(12)
		}
		classes := 2 + rng.Intn(4)
		inDim := 4 + rng.Intn(8)

		archSeed := rng.Int63()
		trSeq := model.NewTrainableMLP(rand.New(rand.NewSource(archSeed)), "seq", inDim, widths, classes)
		trPipe := model.NewTrainableMLP(rand.New(rand.NewSource(archSeed)), "pipe", inDim, widths, classes)

		// Random strictly-increasing cut set.
		nb := len(trPipe.Blocks)
		cutSet := map[int]bool{}
		for i := 0; i < 1+rng.Intn(nb-1); i++ {
			cutSet[1+rng.Intn(nb-1)] = true
		}
		var cuts []int
		for c := range cutSet {
			cuts = append(cuts, c)
		}
		sort.Ints(cuts)

		p, err := NewDistributed(trPipe, cuts, nil)
		if err != nil {
			return false
		}
		rows := 6 + rng.Intn(20)
		x, labels := makeData(rng, rows, inDim, classes)
		mbs := 1 + rng.Intn(rows)

		lossSeq := trSeq.Network().TrainBatch(x, labels, &nn.SGD{LR: 0.05})
		lossPipe, err := p.TrainSyncRound(x, labels, mbs, &nn.SGD{LR: 0.05})
		if err != nil {
			return false
		}
		if math.Abs(lossSeq-lossPipe) > 1e-9 {
			return false
		}
		ws := trSeq.Network().FlatWeights()
		wp := p.Network().FlatWeights()
		for i := range ws {
			if math.Abs(ws[i]-wp[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
