package runtime

import (
	"math/rand"
	"testing"
	"time"

	"ecofl/internal/model"
	"ecofl/internal/nn"
)

// The steady-state cost of link hardening: BenchmarkDistRound/bare runs a
// distributed sync-round with the zero LinkOptions (no deadlines, no
// heartbeats), BenchmarkDistRound/hardened with a full failover
// configuration, both over net.Pipe. The acceptance bound is <2% overhead on
// a fault-free round (see EXPERIMENTS.md). The tcp-hardened leg is the
// benchmark's pipeline-tcp workload in miniature: its model, batch and
// micro-batch size, and the LinkOptions the healing executor deploys
// (experiments.LiveFailover), over real loopback sockets.
func benchDistRound(b *testing.B, dial Dialer, opts LinkOptions, hidden []int, rows, mbs int) {
	rng := rand.New(rand.NewSource(1))
	tr := model.NewTrainableMLP(rng, "bench", 64, hidden, 8)
	dp, err := NewDistributed(tr, []int{1, 2}, dial)
	if err != nil {
		b.Fatal(err)
	}
	dp.SetLinkOptions(opts)
	x, labels := makeData(rng, rows, 64, 8)
	opt := &nn.SGD{LR: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.TrainSyncRound(x, labels, mbs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistRound(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		benchDistRound(b, PipeLinks(), LinkOptions{}, []int{96, 64}, 48, 8)
	})
	b.Run("hardened", func(b *testing.B) {
		benchDistRound(b, PipeLinks(), LinkOptions{
			SendTimeout: 500 * time.Millisecond,
			RecvTimeout: 500 * time.Millisecond,
			Heartbeat:   100 * time.Millisecond,
			DialRetries: 3,
		}, []int{96, 64}, 48, 8)
	})
	b.Run("tcp-hardened", func(b *testing.B) {
		benchDistRound(b, TCPLinks(), executorLinkOptions, []int{96, 64, 48}, 256, 16)
	})
}

// executorLinkOptions are the LinkOptions the healing executor deploys
// (experiments.LiveFailover) and the benchmark's pipeline-tcp workload uses.
var executorLinkOptions = LinkOptions{
	SendTimeout: 300 * time.Millisecond,
	RecvTimeout: 250 * time.Millisecond,
	RecvBudget:  1500 * time.Millisecond,
	Heartbeat:   50 * time.Millisecond,
	DialRetries: 4,
}
