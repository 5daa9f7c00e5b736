package runtime

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"ecofl/internal/flnet/wire"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/tensor"
)

func distEquivalence(t *testing.T, dial Dialer) {
	t.Helper()
	const seed = 321
	trSeq := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "seq", 10, []int{14, 12, 10}, 4)
	trDist := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "dist", 10, []int{14, 12, 10}, 4)
	dp, err := NewDistributed(trDist, []int{1, 2, 3}, dial)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x, labels := makeData(rng, 24, 10, 4)
	seqNet := trSeq.Network()
	optSeq := &nn.SGD{LR: 0.05}
	optDist := &nn.SGD{LR: 0.05}
	for step := 0; step < 4; step++ {
		lossSeq := seqNet.TrainBatch(x, labels, optSeq)
		lossDist, err := dp.TrainSyncRound(x, labels, 6, optDist)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lossSeq-lossDist) > 1e-9 {
			t.Fatalf("step %d: loss %v vs %v", step, lossSeq, lossDist)
		}
	}
	ws := seqNet.FlatWeights()
	wd := dp.Network().FlatWeights()
	for i := range ws {
		if math.Abs(ws[i]-wd[i]) > 1e-9 {
			t.Fatalf("weight %d diverged over the network: %v vs %v", i, ws[i], wd[i])
		}
	}
}

// Gradient equivalence must survive real serialization over net.Pipe.
func TestDistributedEquivalenceOverPipe(t *testing.T) {
	distEquivalence(t, PipeLinks())
}

// ... and over genuine TCP loopback connections.
func TestDistributedEquivalenceOverTCP(t *testing.T) {
	distEquivalence(t, TCPLinks())
}

func TestDistributedLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := model.NewTrainableMLP(rng, "dist-learn", 8, []int{16, 12}, 3)
	dp, err := NewDistributed(tr, []int{1, 2}, TCPLinks())
	if err != nil {
		t.Fatal(err)
	}
	x, labels := makeData(rng, 30, 8, 3)
	opt := &nn.SGD{LR: 0.1}
	first, err := dp.TrainSyncRound(x, labels, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 40; i++ {
		last, err = dp.TrainSyncRound(x, labels, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last > first/2 {
		t.Fatalf("distributed pipeline failed to learn: %v → %v", first, last)
	}
}

func TestDistributedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := model.NewTrainableMLP(rng, "x", 4, []int{6, 6}, 2) // 3 blocks
	for _, cuts := range [][]int{{0}, {3}, {2, 2}, {2, 1}, {4}, {5}} {
		if _, err := NewDistributed(tr, cuts, nil); err == nil {
			t.Fatalf("cuts %v must be rejected", cuts)
		}
	}
	// Stages refuse any tensor not shaped as they expect, which they work
	// out from the model's input shape.
	bare := handTrainable("bare", nil, []nn.Layer{nn.NewConv2D(rng, 1, 2, 3, 1, 1)}, []nn.Layer{nn.Flatten{}})
	if _, err := NewDistributed(bare, []int{1}, nil); err == nil {
		t.Fatal("a model with no input shape must be rejected")
	}
	dp, err := NewDistributed(tr, []int{1, 2}, nil)
	if err != nil {
		t.Fatalf("valid cuts rejected: %v", err)
	}
	x := tensor.New(2, 4)
	if _, err := dp.TrainSyncRound(x, []int{0, 1}, 0, &nn.SGD{LR: 0.1}); err == nil {
		t.Fatal("zero mbs must error")
	}
	if _, err := dp.TrainSyncRound(x, []int{0}, 2, &nn.SGD{LR: 0.1}); err == nil {
		t.Fatal("label mismatch must error")
	}
}

// TestRoundCountersCountCommittedRounds scrapes the round counters around one
// aborted and three committed rounds: a round counts once it commits, an
// aborted one counts as an abort only, and samples are the committed rows.
func TestRoundCountersCountCommittedRounds(t *testing.T) {
	const rows = 12
	names := []string{"ecofl_pipeline_rounds_total", "ecofl_pipeline_dist_aborts_total", "ecofl_pipeline_samples_total"}
	before := make([]int64, len(names))
	for i, n := range names {
		before[i] = scrapeCounter(t, n)
	}
	x, labels := makeData(rand.New(rand.NewSource(3)), rows, 8, 3)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(5)), "count", 8, []int{10}, 3)
	dp, err := NewDistributed(tr, []int{1}, severedOnce(0, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	opt := &nn.SGD{LR: 0.1}
	if _, err := dp.TrainSyncRound(x, labels, 4, opt); err == nil {
		t.Fatal("the round over the severed link committed")
	}
	for r := 0; r < 3; r++ {
		if _, err := dp.TrainSyncRound(x, labels, 4, opt); err != nil {
			t.Fatal(err)
		}
	}
	want := []int64{3, 1, 3 * rows}
	for i, n := range names {
		if got := scrapeCounter(t, n) - before[i]; got != want[i] {
			t.Errorf("%s moved by %d, want %d", n, got, want[i])
		}
	}
}

// Equivalence must also hold across bandwidth-throttled links (slower, but
// bit-identical) — the 100 Mbps in-home links of the paper's testbed.
func TestDistributedEquivalenceOverThrottledLinks(t *testing.T) {
	// 2 MB/s with 1 ms latency: slow enough to exercise queuing, fast
	// enough for a test.
	distEquivalence(t, ThrottledLinks(PipeLinks(), 2e6, time.Millisecond))
}

// Throttling must show in the estimate: the throttle holds each frame for
// its bytes over the bandwidth before it writes it, so no one-way time the
// pipeline measures on the link can be shorter than that, and neither can
// their smoothed value.
func TestThrottledLinksAddTransferTime(t *testing.T) {
	const bandwidth, mbs = 5e5, 8
	rng := rand.New(rand.NewSource(9))
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(10)), "b", 64, []int{64}, 4)
	x, labels := makeData(rng, 32, 64, 4)
	p, err := NewDistributed(tr, []int{1}, ThrottledLinks(PipeLinks(), bandwidth, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for r := 0; r < 3; r++ {
		if _, err := p.TrainSyncRound(x, labels, mbs, &nn.SGD{LR: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	// Both directions carry 8×64 float64s a frame: ≈ 8.3 ms at 500 KB/s.
	floor := float64(wire.HeaderSize+mbs*64*8) / bandwidth
	if est := p.LastRoundStats().Times[0]; est.CommF < floor || est.CommB < floor {
		t.Fatalf("estimated one-way times %g s (activations) and %g s (gradients), want each at least %g s", est.CommF, est.CommB, floor)
	}
}
