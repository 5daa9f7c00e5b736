//go:build !race

package runtime

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/pipeline"
)

// TestSyncRoundAllocBudget is the sync-round's allocation budget, on the
// benchmark's pipeline-tcp shape (MLP 64→[96,64,48]→8 in three stages, 256
// rows in micro-batches of 16, the hardened LinkOptions the healing executor
// deploys), over in-process pipes and over TCP loopback. A warm round draws
// every tensor from the pool — 243 of them — and reuses the links the first
// round dialed, with their queues and heartbeat tickers, and the round
// scaffolding the last round left: micro-batch views, records, op orders,
// clocks, the wait group and the abort hook. What is left is 12 objects: the
// four writer goroutines and the three stage goroutines, the stats the
// caller gets to keep (the struct, its compute times and its residency),
// the measured times, and the P_s sized from them. The pipe leg measures
// about two more: a net.Pipe deadline allocates a timer each time a link
// re-arms it, and as the residency moves from round to round the pool's
// per-P lists now and then miss. A re-dial per round would cost far more (a
// listener, a dial and an accept per TCP link, deadline timers and buffers
// per connection), which is what the TCP leg is there to catch. The budget
// is the mean of twelve runs plus 10 %.
func TestSyncRoundAllocBudget(t *testing.T) {
	for _, leg := range []struct {
		name   string
		dial   Dialer
		budget float64
	}{
		{"pipe", PipeLinks(), 15.5}, // measured: 14.0 (13.5–14.6)
		{"tcp", TCPLinks(), 13.5},   // measured: 12.2 (12.0–13.0)
	} {
		t.Run(leg.name, func(t *testing.T) {
			got := warmRoundAllocs(t, leg.dial)
			t.Logf("warm sync-round: %.1f allocations", got)
			if got > leg.budget {
				t.Errorf("warm sync-round allocates %.1f objects, budget %.1f", got, leg.budget)
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
	// Dial the links, warm the pools and the scratch. The warm-up runs the
	// deepest residency 16 micro-batches allow, so that no measured round
	// holds more tensors in flight than the pool has seen: a residency
	// deeper than any before draws its extra tensors once, and that is the
	// pool filling, not the round's cost.
	dp.est.residency = func(times []pipeline.StageTimes) ([]int, error) {
		p, err := pipeline.ResidencyP(times)
		if err == nil {
			p[0], p[1] = 16, 16
		}
		return p, err
	}
	for i := 0; i < 5; i++ {
		round()
	}
	dp.est.residency = pipeline.ResidencyP
	// Counted by hand and not with testing.AllocsPerRun, which measures at
	// GOMAXPROCS 1: the stages should run at once, as they do on the host.
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / rounds
}
