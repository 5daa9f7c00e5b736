package runtime

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/pipeline"
)

// TestExecutedOrderMatchesSchedule holds every stage's executed op sequence,
// read off a clockless journal, to pipeline.Schedule's task order for the same
// partition on an ideal device (free links, ample memory, where the plan's
// K_s is S−s), and the stage's record pool to K_s. Micro-batch counts below
// the stage count are included.
func TestExecutedOrderMatchesSchedule(t *testing.T) {
	const mbs = 2
	spanKinds := map[string]pipeline.TaskKind{"pipe.fwd": pipeline.TaskForward, "pipe.bwd": pipeline.TaskBackward}
	ideal := &device.Device{Name: "ideal", ComputeRate: 1e9, MemoryBytes: 1 << 40, LinkBandwidth: math.Inf(1)}
	for S := 1; S <= 5; S++ {
		tr := model.NewTrainableMLP(rand.New(rand.NewSource(int64(S))), "order", 6, []int{8, 8, 8, 8}, 3)
		cuts := make([]int, S-1)
		var stages []pipeline.Stage
		for s := range S {
			if s > 0 {
				cuts[s-1] = s
			}
			stages = append(stages, pipeline.Stage{Device: ideal, From: s, To: s + 1})
		}
		stages[S-1].To = len(tr.Blocks)
		dp, err := NewDistributed(tr, cuts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m <= 7; m++ {
			res, err := pipeline.Schedule(&pipeline.Config{Spec: tr.Spec, Stages: stages,
				MicroBatchSize: mbs, NumMicroBatches: m, Strategy: pipeline.OneFOneBSync})
			if err != nil {
				t.Fatal(err)
			}
			rec := journal.NewClock(0, 1<<12, nil)
			dp.SetTrace(rec)
			x, labels := makeData(rand.New(rand.NewSource(int64(m))), m*mbs, 6, 3)
			if _, err := dp.TrainSyncRound(x, labels, mbs, &nn.SGD{LR: 0.01}); err != nil {
				t.Fatal(err)
			}
			executed := make([][]pipeline.Op, S)
			for _, e := range rec.Events() {
				if k, ok := spanKinds[e.Kind]; ok {
					micro, _ := strconv.Atoi(e.Attrs["micro"])
					executed[e.Lane] = append(executed[e.Lane], pipeline.Op{Kind: k, Micro: micro})
				}
			}
			for s := range S {
				var scheduled []pipeline.Op
				for _, task := range res.Tasks {
					if task.Stage == s && (task.Kind == pipeline.TaskForward || task.Kind == pipeline.TaskBackward) {
						scheduled = append(scheduled, pipeline.Op{Kind: task.Kind, Micro: task.Micro})
					}
				}
				if !slices.Equal(executed[s], scheduled) {
					t.Fatalf("S=%d m=%d stage %d executed %v, scheduled %v", S, m, s, executed[s], scheduled)
				}
				if got := len(dp.stages[s].recs); got != res.Ks[s] {
					t.Fatalf("S=%d m=%d stage %d holds %d records, the plan's K_s is %d", S, m, s, got, res.Ks[s])
				}
			}
		}
	}
}

// TestSimulatorMatchesPrototype cross-validates the schedule simulator
// against the executing prototype: a deliberately imbalanced partition (one
// huge block between two small ones) must show the same busy-time ordering in
// real measured wall-clock as in the simulator's utilization prediction. The
// assertions are deliberately coarse — wall-clock on a shared host is noisy —
// but the *shape* (which stage dominates compute) must agree, and it is read
// from a partition whose dominant stage is dominant by a wide margin, over
// several rounds, so that one descheduled goroutine cannot flip it.
func TestSimulatorMatchesPrototype(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// Block widths 32→256→512→8: forward FLOPs per sample are 2·32·256,
	// 2·256·512 and 2·512·8, so the middle block is 16× the first and 32×
	// the last.
	tr := model.NewTrainableMLP(rng, "validate", 32, []int{256, 512}, 8)
	p, err := NewDistributed(tr, []int{1, 2}, PipeLinks())
	if err != nil {
		t.Fatal(err)
	}
	x, labels := makeData(rng, 64, 32, 8)
	// A few warm-up rounds, then measure: compute time per stage summed over
	// the measured rounds.
	const warmUp, measured = 3, 5
	compute := make([]time.Duration, 3)
	var stats *RoundStats
	for i := 0; i < warmUp+measured; i++ {
		if _, err := p.TrainSyncRound(x, labels, 16, &nn.SGD{LR: 0.01}); err != nil {
			t.Fatal(err)
		}
		if i < warmUp {
			continue
		}
		stats = p.LastRoundStats()
		if stats == nil || len(stats.ComputeTime) != 3 {
			t.Fatalf("stats missing: %+v", stats)
		}
		if stats.WallTime <= 0 {
			t.Fatal("wall time must be positive")
		}
		for s, c := range stats.ComputeTime {
			compute[s] += c
		}
	}
	// The simulator's prediction from the Trainable's own cost spec: the
	// stage with the largest FwdFLOPs share must also dominate measured
	// compute time.
	spec := tr.Spec
	flops := []float64{
		spec.SegmentFwdFLOPs(0, 1), // 32×256
		spec.SegmentFwdFLOPs(1, 2), // 256×512
		spec.SegmentFwdFLOPs(2, 3), // 512×8
	}
	predMax, measMax := 0, 0
	for i := 1; i < 3; i++ {
		if flops[i] > flops[predMax] {
			predMax = i
		}
		if compute[i] > compute[measMax] {
			measMax = i
		}
	}
	for i, f := range flops {
		if i != predMax && flops[predMax] < 8*f {
			t.Fatalf("partition is not imbalanced enough to read a shape from: stage FLOPs %v", flops)
		}
	}
	if predMax != measMax {
		t.Fatalf("simulator predicts stage %d dominates, prototype measured stage %d (times %v over %d rounds)",
			predMax, measMax, compute, measured)
	}
	// The dominant stage must carry the majority of total compute in both
	// views (it has ~91% of the FLOPs).
	var total float64
	for _, c := range compute {
		total += c.Seconds()
	}
	if share := compute[measMax].Seconds() / total; share < 0.5 {
		t.Fatalf("dominant stage's measured compute share %.2f too low", share)
	}
	// Utilization vector is well-formed.
	for i, u := range stats.StageUtilization() {
		if u < 0 || u > 1.5 { // >1 impossible modulo clock skew; 1.5 guards noise
			t.Fatalf("stage %d utilization %.2f out of range", i, u)
		}
	}
}
