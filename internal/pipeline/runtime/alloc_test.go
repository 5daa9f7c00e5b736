//go:build !race

package runtime

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"ecofl/internal/model"
	"ecofl/internal/nn"
)

// TestSyncRoundAllocBudget is the sync-round's allocation budget, on the
// benchmark's pipeline-tcp shape (MLP 64→[96,64,48]→8 in three stages, 256
// rows in micro-batches of 16, the hardened LinkOptions the healing executor
// deploys) over in-process pipes. A warm round draws every tensor from the
// pool — 243 of them — so what is left is the round's own set-up: four pipe
// ends with their deadline timers, four links (struct, queue, writer,
// heartbeat ticker, frame and header buffers), the micro-batch views, the
// stage goroutines and the stats the caller gets to keep. The budget is the
// measured mean plus 10 %.
func TestSyncRoundAllocBudget(t *testing.T) {
	const rounds, budget = 50, 122 // measured: 111.1
	// Two Ps, as on the benchmark's host: with more, sync.Pool parks more
	// tensors in per-P slots where the other stages cannot find them.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(1))
	tr := model.NewTrainableMLP(rng, "budget", 64, []int{96, 64, 48}, 8)
	dp, err := NewDistributed(tr, []int{1, 2}, PipeLinks())
	if err != nil {
		t.Fatal(err)
	}
	dp.SetLinkOptions(executorLinkOptions)
	x, labels := makeData(rng, 256, 64, 8)
	opt := &nn.SGD{LR: 0.01}
	round := func() {
		if _, err := dp.TrainSyncRound(x, labels, 16, opt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		round() // warm the pool, the worker pool and the scratch
	}
	// Counted by hand and not with testing.AllocsPerRun, which measures at
	// GOMAXPROCS 1: the stages and the matmul fan-out should run as they do.
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	goruntime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("warm sync-round: %.1f allocations", got)
	if got > budget {
		t.Errorf("warm sync-round allocates %.1f objects, budget %d", got, budget)
	}
}
