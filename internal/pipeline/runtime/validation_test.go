package runtime

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/pipeline"
)

// TestExecutedOrderMatchesSchedule holds every stage's executed op sequence,
// read off a clockless journal, to the op order pipeline.Schedule times,
// pipeline.Order(OneFOneBSync, m, K_s), at the K_s the round reports, and the
// stage's record pool to K_s. K_s is min(S−s, m) on a pipeline's first round
// and min(P_s, m) after it, P_s being pipeline.ResidencyP of the previous
// clean round's measured times. One pipeline runs every micro-batch count in
// turn, counts below the stage count included.
func TestExecutedOrderMatchesSchedule(t *testing.T) {
	const mbs = 2
	spanKinds := map[string]pipeline.TaskKind{"pipe.fwd": pipeline.TaskForward, "pipe.bwd": pipeline.TaskBackward}
	for S := 1; S <= 5; S++ {
		tr := model.NewTrainableMLP(rand.New(rand.NewSource(int64(S))), "order", 6, []int{8, 8, 8, 8}, 3)
		cuts := make([]int, S-1)
		for s := range cuts {
			cuts[s] = s + 1
		}
		dp, err := NewDistributed(tr, cuts, nil)
		if err != nil {
			t.Fatal(err)
		}
		var p []int // P_s sized from the last clean round; nil before one
		for m := 1; m <= 7; m++ {
			rec := journal.NewClock(0, 1<<12, nil)
			dp.SetTrace(rec)
			x, labels := makeData(rand.New(rand.NewSource(int64(m))), m*mbs, 6, 3)
			if _, err := dp.TrainSyncRound(x, labels, mbs, &nn.SGD{LR: 0.01}); err != nil {
				t.Fatal(err)
			}
			stats := dp.LastRoundStats()
			executed := make([][]pipeline.Op, S)
			for _, e := range rec.Events() {
				if k, ok := spanKinds[e.Kind]; ok {
					micro, _ := strconv.Atoi(e.Attrs["micro"])
					executed[e.Lane] = append(executed[e.Lane], pipeline.Op{Kind: k, Micro: micro})
				}
			}
			for s := range S {
				want := S - s
				if p != nil {
					want = p[s]
				}
				want = min(want, m)
				if k := stats.Residency[s]; k != want {
					t.Fatalf("S=%d m=%d stage %d ran K=%d, want %d (P from the last round: %v)", S, m, s, k, want, p)
				}
				if scheduled := pipeline.Order(nil, pipeline.OneFOneBSync, m, want); !slices.Equal(executed[s], scheduled) {
					t.Fatalf("S=%d m=%d stage %d executed %v, scheduled %v", S, m, s, executed[s], scheduled)
				}
				if got := len(dp.stages[s].recs); got != want {
					t.Fatalf("S=%d m=%d stage %d holds %d records, K_s is %d", S, m, s, got, want)
				}
			}
			if len(stats.Times) != S {
				t.Fatalf("S=%d m=%d: a clean round measured %v", S, m, stats.Times)
			}
			if next, err := pipeline.ResidencyP(stats.Times); err == nil {
				p = next
			}
		}
		dp.Close()
	}
}

// TestMeasureFromClocks drives measure with synthetic timestamps. Every
// stage computes 10 µs forward and 20 µs backward per micro-batch. Link 0
// carries activations in 100 µs to a waiting receiver and in 1000 µs to a
// busy one, which must not count, and gradients in 50 µs. Link 1 carries
// activations in 60 µs and has no gradient that found its receiver waiting,
// so that direction keeps its previous estimate.
func TestMeasureFromClocks(t *testing.T) {
	const S, m = 3, 4
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	clocks := make([][]microClock, S)
	for s := range clocks {
		clocks[s] = make([]microClock, m)
		for i := range clocks[s] {
			clocks[s][i].fwd, clocks[s][i].bwd = us(10), us(20)
		}
	}
	// hop times a frame queued at sent over a link of the given one-way
	// time; busy says its receiver entered recv only after it was queued.
	hop := func(sent time.Duration, oneWay int, busy bool) (wait, got time.Duration) {
		if busy {
			return sent + us(5), sent + us(oneWay)
		}
		return sent - us(5), sent + us(oneWay)
	}
	for i := range m {
		base := us(1000 * i)
		c0, c1, c2 := &clocks[0][i], &clocks[1][i], &clocks[2][i]
		c0.actSent = base
		if busy := i%2 == 1; busy {
			c1.actWait, c1.actGot = hop(c0.actSent, 1000, busy)
		} else {
			c1.actWait, c1.actGot = hop(c0.actSent, 100, busy)
		}
		c1.gradSent = base + us(500)
		c0.gradWait, c0.gradGot = hop(c1.gradSent, 50, false)
		c1.actSent = base + us(200)
		c2.actWait, c2.actGot = hop(c1.actSent, 60, false)
		c2.gradSent = base + us(400)
		c1.gradWait, c1.gradGot = hop(c2.gradSent, 70, true)
	}
	sec := func(n int) float64 { return us(n).Seconds() }
	for _, c := range []struct {
		name   string
		prev   []pipeline.StageTimes
		commB1 float64
		wantP  []int
	}{
		// Ratios: stage 2, (30+60+0)/30 = 3; stage 1, (30+100+50)/30 = 6.
		{"no previous estimate", nil, 0, []int{10, 4, 1}},
		// With link 1's gradients kept at 30 µs, stage 2's ratio is 4.
		{"previous estimate", []pipeline.StageTimes{{}, {CommF: sec(999), CommB: sec(30)}, {}}, sec(30), []int{11, 5, 1}},
	} {
		got := measure(clocks, c.prev)
		want := []pipeline.StageTimes{
			{Tf: sec(10), Tb: sec(20), CommF: sec(100), CommB: sec(50)},
			{Tf: sec(10), Tb: sec(20), CommF: sec(60), CommB: c.commB1},
			{Tf: sec(10), Tb: sec(20)},
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: measure = %+v, want %+v", c.name, got, want)
		}
		p, err := pipeline.ResidencyP(got)
		if err != nil || !slices.Equal(p, c.wantP) {
			t.Errorf("%s: ResidencyP = %v, %v; want %v", c.name, p, err, c.wantP)
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
