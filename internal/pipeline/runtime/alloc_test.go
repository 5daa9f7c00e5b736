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
// deploys), over in-process pipes and over TCP loopback. A warm round draws
// every tensor from the pool — 243 of them — and reuses the links the first
// round dialed, with their queues and heartbeat tickers; what is left is the
// round's own set-up: four writer goroutines, the micro-batch views, the
// stage goroutines, the abort hook and the stats the caller gets to keep.
// A re-dial per round would cost far more (a listener, a dial and an accept
// per TCP link, deadline timers and buffers per connection), which is what
// the TCP leg is there to catch. The budget is the measured mean plus 10 %.
func TestSyncRoundAllocBudget(t *testing.T) {
	for _, leg := range []struct {
		name   string
		dial   Dialer
		budget float64
	}{
		{"pipe", PipeLinks(), 25}, // measured: 22.4
		{"tcp", TCPLinks(), 25},   // measured: 22.5
	} {
		t.Run(leg.name, func(t *testing.T) {
			got := warmRoundAllocs(t, leg.dial)
			t.Logf("warm sync-round: %.1f allocations", got)
			if got > leg.budget {
				t.Errorf("warm sync-round allocates %.1f objects, budget %.0f", got, leg.budget)
			}
		})
	}
}

// warmRoundAllocs returns the mean allocation count of a warm sync-round.
func warmRoundAllocs(t *testing.T, dial Dialer) float64 {
	const rounds = 50
	// Two Ps, as on the benchmark's host: with more, sync.Pool parks more
	// tensors in per-P slots where the other stages cannot find them.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(1))
	tr := model.NewTrainableMLP(rng, "budget", 64, []int{96, 64, 48}, 8)
	dp, err := NewDistributed(tr, []int{1, 2}, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	dp.SetLinkOptions(executorLinkOptions)
	x, labels := makeData(rng, 256, 64, 8)
	opt := &nn.SGD{LR: 0.01}
	round := func() {
		if _, err := dp.TrainSyncRound(x, labels, 16, opt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		round() // dial the links, warm the pools and the scratch
	}
	// Counted by hand and not with testing.AllocsPerRun, which measures at
	// GOMAXPROCS 1: the stages and the matmul fan-out should run as they do.
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / rounds
}
