package runtime

import (
	"math/rand"
	"testing"
	"time"

	"ecofl/internal/model"
	"ecofl/internal/nn"
)

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
