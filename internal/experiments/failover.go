package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ecofl/internal/adaptive/executor"
	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/pipeline/runtime"
	"ecofl/internal/simnet"
	"ecofl/internal/tensor"
)

// LiveFailover is the executed counterpart of the Fig. 13 what-if: instead
// of modelling a migration analytically, it trains a real partitioned model
// through the self-healing executor, injects link chaos and a stage-device
// kill, and measures what actually happened — detection latency, executed
// migration time and volume (against the analytic plan), and whether the
// recovered model stayed bit-identical to a fault-free run.
type LiveFailover struct {
	Seed           int64
	Rounds         int
	MicroBatchSize int
	// FailRound/FailDevice schedule a device kill (FailRound < 0 disables).
	FailRound  int
	FailDevice int
	// Fault is the chaos plan of every inter-stage link (Mode FaultNone or
	// Prob 0 leaves the links clean). Its Seed is not read: link i draws its
	// schedule from the lane Seed + 100 + i of the run's own seed.
	Fault simnet.FaultPlan
	// Journal, when non-nil, is handed to the executor as its flight
	// recorder: heal steps and injected chaos faults land in it.
	Journal *journal.Recorder
}

// FailoverReport is what the live run measured.
type FailoverReport struct {
	Stats     executor.Stats
	FinalLoss float64
	FirstLoss float64
	// BitIdentical reports whether the recovered model exactly equals the
	// fault-free oracle's — the §4.4 correctness claim, executed.
	BitIdentical bool
}

// Run executes the live failover scenario on a Table 1 fleet.
func (c *LiveFailover) Run() (*FailoverReport, error) {
	if c.MicroBatchSize <= 0 {
		c.MicroBatchSize = 6
	}
	const dim, classes, samples = 16, 4, 24
	hidden := []int{20, 16, 12}
	lr := 0.05

	rng := rand.New(rand.NewSource(c.Seed + 1))
	x := tensor.New(samples, dim)
	labels := make([]int, samples)
	for i := 0; i < samples; i++ {
		labels[i] = rng.Intn(classes)
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}

	var chaos func(int) *simnet.Chaos
	if c.Fault.Mode != simnet.FaultNone && c.Fault.Prob > 0 {
		links := map[int]*simnet.Chaos{}
		chaos = func(i int) *simnet.Chaos {
			if _, ok := links[i]; !ok {
				plan := c.Fault
				plan.Seed = c.Seed + 100 + int64(i)
				links[i] = simnet.NewChaos(plan)
			}
			return links[i]
		}
	}

	tr := model.NewTrainableMLP(rand.New(rand.NewSource(c.Seed)), "failover", dim, hidden, classes)
	exec, err := executor.New(executor.Config{
		Trainable:      tr,
		Devices:        []*device.Device{device.TX2N(), device.TX2Q(), device.NanoH()},
		MicroBatchSize: c.MicroBatchSize,
		Chaos:          chaos,
		MaxHeals:       14,
		Journal:        c.Journal,
		LinkOptions: runtime.LinkOptions{
			SendTimeout: 300 * time.Millisecond,
			RecvTimeout: 250 * time.Millisecond,
			RecvBudget:  1500 * time.Millisecond,
			Heartbeat:   50 * time.Millisecond,
			DialRetries: 4,
			JitterSeed:  c.Seed + 3,
		},
	})
	if err != nil {
		return nil, err
	}
	if c.FailRound >= 0 {
		exec.ScheduleKill(c.FailRound, c.FailDevice)
	}

	rep := &FailoverReport{}
	opt := &nn.SGD{LR: lr}
	for r := 0; r < c.Rounds; r++ {
		loss, err := exec.TrainRound(x, labels, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: failover round %d: %w", r, err)
		}
		if r == 0 {
			rep.FirstLoss = loss
		}
		rep.FinalLoss = loss
	}
	rep.Stats = exec.Stats()

	// Fault-free oracle: the identically-seeded model trained in-process.
	ref := model.NewTrainableMLP(rand.New(rand.NewSource(c.Seed)), "failover", dim, hidden, classes)
	pref, err := runtime.New(ref, nil)
	if err != nil {
		return nil, err
	}
	refOpt := &nn.SGD{LR: lr}
	for r := 0; r < c.Rounds; r++ {
		if _, err := pref.TrainSyncRound(x, labels, c.MicroBatchSize, refOpt); err != nil {
			return nil, err
		}
	}
	rep.BitIdentical = slices.Equal(tr.Network().FlatWeights(), ref.Network().FlatWeights())
	return rep, nil
}
