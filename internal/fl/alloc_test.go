//go:build !race

// Allocation counts are meaningless under the race detector, whose
// instrumentation allocates.

package fl

import (
	"math/rand"
	"runtime"
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

// TestGroupingCostAllocFree pins Eq. 4's cost, and Algorithm 1's Regroup scan
// over it, at no allocation once the clients' label counts are counted: the
// parent of this test's first commit spent five slices a call, some 10⁴ calls
// per paper-scale grouping.
func TestGroupingCostAllocFree(t *testing.T) {
	pop := testPopulation(2, 40, fastConfig())
	gr := &Grouper{Lambda: 500, RT: 15, NumClasses: pop.TestClasses()}
	groups := gr.InitialGrouping(rand.New(rand.NewSource(2)), pop.Clients, 4)
	c := pop.Clients[0]
	if got := testing.AllocsPerRun(100, func() { gr.Cost(groups[0], c) }); got != 0 {
		t.Errorf("Cost allocates %.1f objects a call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { gr.Regroup(c, groups) }); got != 0 {
		t.Errorf("Regroup allocates %.1f objects a call, want 0", got)
	}
}

// TestHierarchicalRunAllocBudget pins what a warm grouped run allocates per
// client training: Eco-FL with Algorithm 1 regrouping on a 60-client fleet,
// two clients a group round. Grouping, selection, training fan-out, sample
// weights and the event queue reuse their memory; what is left is the round's
// one closure and the run's set-up spread over its trainings (≈ 0.9 when the
// budget was set). The parent of this test's first commit spent 16.5 here,
// most of it in Eq. 4's cost; the same run at paper scale spent 52.
func TestHierarchicalRunAllocBudget(t *testing.T) {
	const budget = 1.25
	cfg := fastConfig()
	cfg.Lambda, cfg.Dynamic, cfg.DynamicInterval, cfg.Duration = 500, true, 100, 2000
	pop := testPopulation(3, 60, cfg)
	opts := HierOptions{Grouping: GroupEcoFL, DynamicRegroup: true}
	RunHierarchical(pop, opts) // warm the pools, the trainers and the label counts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := RunHierarchical(pop, opts)
	runtime.ReadMemStats(&after)
	trainings := 0
	for _, n := range r.Participation {
		trainings += n
	}
	if trainings == 0 {
		t.Fatal("the run trained no client")
	}
	if got := float64(after.Mallocs-before.Mallocs) / float64(trainings); got > budget {
		t.Errorf("a grouped run allocates %.2f objects per client training (%d trainings), budget %.2f",
			got, trainings, budget)
	}
}
