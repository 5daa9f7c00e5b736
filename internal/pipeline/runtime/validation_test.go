package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
)

// TestExecutedOrderMatchesSchedule holds every stage's executed op sequence,
// read off a clockless journal, to the op order pipeline.Schedule times,
// pipeline.Order(OneFOneBSync, m, K_s), at the K_s the round reports, and the
// stage's record pool to K_s. The K_s it expects follow the residency rule
// from the outside: min(S−s, m) on a pipeline's first round; then min(P_s, m)
// with P sized at once from the first estimate a round reports (Times), and
// from then on replaced, whole, by pipeline.ResidencyP of the reported
// estimate only once that P has differed from the one in force for
// switchAfter rounds in a row. One pipeline runs micro-batch counts 1 to 7
// in turn, counts below the stage count included, for long enough that the
// rule can switch.
func TestExecutedOrderMatchesSchedule(t *testing.T) {
	const mbs, rounds = 2, 3 * switchAfter
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
		var p []int // the P in force; nil before the first estimate
		behind := 0
		for r := range rounds {
			m := 1 + r%7
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
					t.Fatalf("S=%d round %d (m=%d) stage %d ran K=%d, want %d (P in force: %v)", S, r, m, s, k, want, p)
				}
				if scheduled := pipeline.Order(nil, pipeline.OneFOneBSync, m, want); !slices.Equal(executed[s], scheduled) {
					t.Fatalf("S=%d m=%d stage %d executed %v, scheduled %v", S, m, s, executed[s], scheduled)
				}
				if got := len(dp.stages[s].recs); got != want {
					t.Fatalf("S=%d m=%d stage %d holds %d records, K_s is %d", S, m, s, got, want)
				}
			}
			if len(stats.Times) != S {
				t.Fatalf("S=%d m=%d: a clean round reported the estimate %v", S, m, stats.Times)
			}
			next, err := pipeline.ResidencyP(stats.Times)
			switch {
			case err != nil:
			case p == nil:
				p = next
			case slices.EqualFunc(next, p, func(a, b int) bool { return min(a, m) == min(b, m) }):
				behind = 0
			default:
				if behind++; behind == switchAfter {
					p, behind = next, 0
				}
			}
		}
		dp.Close()
	}
}

// us is n microseconds.
func us(n float64) time.Duration { return time.Duration(n * float64(time.Microsecond)) }

// roundClocks builds the clocks of one round of m micro-batches over len(tf)
// stages: stage s computes tf[s] forward and tb[s] backward per micro-batch
// (µs), and link s carries activations in fwd[s] and gradients in bwd[s] to a
// receiver already waiting in recv.
func roundClocks(m int, tf, tb, fwd, bwd []float64) [][]microClock {
	clocks := make([][]microClock, len(tf))
	for s := range clocks {
		clocks[s] = make([]microClock, m)
		for i := range clocks[s] {
			c := &clocks[s][i]
			c.fwd, c.bwd = us(tf[s]), us(tb[s])
		}
	}
	for s := range len(tf) - 1 {
		for i := range m {
			act, grad := &clocks[s][i].link[actFrame], &clocks[s][i].link[gradFrame]
			act.sent = us(float64(10000*i + 100*s))
			act.wait, act.got = act.sent-us(1), act.sent+us(fwd[s])
			grad.sent = act.sent + us(5000)
			grad.wait, grad.got = grad.sent-us(1), grad.sent+us(bwd[s])
		}
	}
	return clocks
}

// TestMeasureFromClocks drives measure with synthetic timestamps. Every
// stage computes 10 µs forward and 20 µs backward per micro-batch. Link 0
// carries activations in 100 µs to a waiting receiver and in 1000 µs to a
// busy one, which must not count, and gradients in 50 µs. Link 1 carries
// activations in 60 µs and has no gradient that found its receiver waiting:
// an estimate that knows nothing of that direction takes the sender's time
// for it (its writer took 25 µs a frame), and one that does keeps what it
// had.
func TestMeasureFromClocks(t *testing.T) {
	const S, m = 3, 4
	clocks := make([][]microClock, S)
	for s := range clocks {
		clocks[s] = make([]microClock, m)
		for i := range clocks[s] {
			clocks[s][i].fwd, clocks[s][i].bwd = us(10), us(20)
		}
	}
	// hop times frame f, queued at sent, over a link of the given one-way
	// time; busy says its receiver entered recv only after it was queued.
	hop := func(f *frameClock, sent time.Duration, oneWay float64, busy bool) {
		f.sent, f.wait, f.got = sent, sent-us(5), sent+us(oneWay)
		if busy {
			f.wait = sent + us(5)
		}
	}
	for i := range m {
		base := us(float64(1000 * i))
		l0, l1 := &clocks[0][i].link, &clocks[1][i].link
		if busy := i%2 == 1; busy {
			hop(&l0[actFrame], base, 1000, busy)
		} else {
			hop(&l0[actFrame], base, 100, busy)
		}
		hop(&l0[gradFrame], base+us(500), 50, false)
		hop(&l1[actFrame], base+us(200), 60, false)
		hop(&l1[gradFrame], base+us(400), 70, true)
		l1[gradFrame].wrote = us(25)
	}
	sec := func(n float64) float64 { return us(n).Seconds() }
	got := make([]pipeline.StageTimes, S)
	measure(clocks, make([]pipeline.StageTimes, S), got)
	want := []pipeline.StageTimes{
		{Tf: sec(10), Tb: sec(20), CommF: sec(100), CommB: sec(50)},
		{Tf: sec(10), Tb: sec(20), CommF: sec(60), CommB: sec(25)},
		{Tf: sec(10), Tb: sec(20)},
	}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	if !slices.EqualFunc(got, want, func(a, b pipeline.StageTimes) bool {
		return same(a.Tf, b.Tf) && same(a.Tb, b.Tb) && same(a.CommF, b.CommF) && same(a.CommB, b.CommB)
	}) {
		t.Errorf("measure = %+v, want %+v", got, want)
	}
	for _, c := range []struct {
		name         string
		commB1, want float64 // link 1's gradient time in the estimate before and after the round
		wantP        []int
	}{
		// Ratios: stage 2, (30+60+25)/30 ≈ 3.83; stage 1, (30+100+50)/30 = 6.
		{"no previous estimate", 0, sec(25), []int{11, 5, 1}},
		// Link 1's gradients stay at 50 µs: stage 2's ratio is
		// (30+60+50)/30 ≈ 4.67.
		{"previous estimate", sec(50), sec(50), []int{12, 6, 1}},
	} {
		e := newEstimate(S)
		e.times[1].CommB = c.commB1
		e.observe(clocks, m)
		if math.Abs(e.times[1].CommB-c.want) > 1e-15 {
			t.Errorf("%s: link 1's gradient estimate is %g, want %g", c.name, e.times[1].CommB, c.want)
		}
		if !slices.Equal(e.p, c.wantP) {
			t.Errorf("%s: the first estimate sized P = %v, want %v", c.name, e.p, c.wantP)
		}
	}
}

// TestEstimateSwitchesWholeVector drives the smoother and the whole-vector
// switch with synthetic clocks. Every stage computes 10 µs forward and 20 µs
// backward, so Eq. 3 reads the links alone: P_1 = ⌈2 + c_1/30⌉ and P_0 =
// ⌈P_1 + 1 + c_0/30⌉ for link round trips c_0, c_1 in µs. The first round
// (c_0 = 36, c_1 = 0) sizes P = [5 2 1] at once. Then link 0 speeds up to
// 25.2 (P_0 back to 5) and link 1 slows to 15, P = [5 3 1], for six rounds,
// and link 1 slows to ≈ 100 for three more, P = [8 6 1]. Stage 1's P has
// differed from 2 for nine rounds in a row, stage 0's for only the last
// three: a stage-by-stage switch would run K = [5 6 1], stage 1 keeping
// more forwards in flight than stage 0 sends before it waits. The
// whole-vector rule holds [5 2 1] for eight rounds and switches to [8 6 1]
// on the ninth. After it, a disagreement cut short by one agreeing round
// starts its count again, and a round in which no frame of a measured link
// direction found its receiver waiting leaves that term where it was.
func TestEstimateSwitchesWholeVector(t *testing.T) {
	const S, m = 3, 16
	tf, tb := []float64{10, 10, 10}, []float64{20, 20, 20}
	e := newEstimate(S)
	round := func(c0, c1 float64) {
		e.observe(roundClocks(m, tf, tb, []float64{c0 / 2, c1 / 2}, []float64{c0 / 2, c1 / 2}), m)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	round(36, 0)
	if want := []int{5, 2, 1}; !slices.Equal(e.p, want) {
		t.Fatalf("the first estimate sized P = %v, want %v", e.p, want)
	}
	// c_0 samples 0 once (36 × 0.7 = 25.2), then 25.2; c_1 seeds at 15.
	samples := [][2]float64{{0, 15}, {25.2, 15}, {25.2, 15}, {25.2, 15}, {25.2, 15}, {25.2, 15},
		{25.2, 300}, {25.2, 100.5}, {25.2, 100.5}}
	for i, c := range samples {
		round(c[0], c[1])
		P, err := pipeline.ResidencyP(e.times)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{5, 3, 1}
		if i >= 6 {
			want = []int{8, 6, 1}
		}
		if !slices.Equal(P, want) {
			t.Fatalf("round %d: the smoothed P is %v, want %v (estimate %+v)", i+1, P, want, e.times)
		}
		inForce := []int{5, 2, 1}
		if i == len(samples)-1 {
			inForce = want
		}
		if !slices.Equal(e.p, inForce) {
			t.Fatalf("round %d: P in force is %v, want %v (%d rounds behind)", i+1, e.p, inForce, e.behind)
		}
	}
	if !near(e.times[0].CommF+e.times[0].CommB, us(25.2).Seconds()) || !near(e.times[1].CommF+e.times[1].CommB, us(100.5).Seconds()) {
		t.Fatalf("smoothed round trips %+v, want 25.2 µs and 100.5 µs", e.times)
	}
	round(25.2, 0) // link 1 to 70.35: P = [7 5 1]
	if e.behind != 1 {
		t.Fatalf("a disagreeing round left %d rounds behind, want 1", e.behind)
	}
	round(25.2, 200) // link 1 to 109.245: P = [8 6 1] again
	if e.behind != 0 {
		t.Fatalf("an agreeing round left %d rounds behind", e.behind)
	}
	before := e.times[1].CommB
	busy := roundClocks(m, tf, tb, []float64{12.6, 50}, []float64{12.6, 50})
	for i := range busy[1] {
		f := &busy[1][i].link[gradFrame]
		f.wait, f.wrote = f.sent+us(1), us(40)
	}
	e.observe(busy, m)
	if e.times[1].CommB != before {
		t.Fatalf("a round with no link-1 gradient measured moved its estimate: %g → %g", before, e.times[1].CommB)
	}
}

// TestSimulatorMatchesPrototype holds the schedule simulator to the
// executing prototype in numbers. A deliberately imbalanced partition (one
// huge block between two small ones) trains, over in-process pipes and over
// TCP, until its estimate has settled. The devices the re-plan would build
// from that estimate (partition.Measured: each stage's rate, each link's
// bandwidth) go through pipeline.Schedule, and its predicted round time
// must be within [0.8, 1.25] of the median measured WallTime of the rounds
// that follow. The band was fixed before the first measurement. Other
// processes that take the box's cores stretch the prototype's rounds in
// ways no per-op estimate sees (a stage runnable but not running between
// its ops): a window whose ratio misses the band is measured again, up to
// three windows, and the test fails when none of them is within it. The
// failure prints, for each window, its ratio, the measured median round and
// each stage's smoothed Tf, Tb, CommF and CommB, so that a miss under load
// shows which term ran long.
func TestSimulatorMatchesPrototype(t *testing.T) {
	const lo, hi = 0.8, 1.25
	const rows, mbs, windows = 64, 16, 3
	warmUp, measured := 20, 21
	if testing.Short() { // the race pass: a round costs tens of times more
		warmUp, measured = 10, 5
	}
	for name, dial := range map[string]Dialer{"pipe": PipeLinks(), "tcp": TCPLinks()} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			// Block widths 32→256→512→8: forward FLOPs per sample are
			// 2·32·256, 2·256·512 and 2·512·8, so the middle block is 16× the
			// first and 32× the last.
			tr := model.NewTrainableMLP(rng, "validate", 32, []int{256, 512}, 8)
			cuts := []int{1, 2}
			p, err := NewDistributed(tr, cuts, dial)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			x, labels := makeData(rng, rows, 32, 8)
			var report strings.Builder
			for w := range windows {
				walls := make([]time.Duration, 0, measured)
				var stats *RoundStats
				for i := 0; i < warmUp+measured; i++ {
					if _, err := p.TrainSyncRound(x, labels, mbs, &nn.SGD{LR: 0.01}); err != nil {
						t.Fatal(err)
					}
					if stats = p.LastRoundStats(); i >= warmUp {
						walls = append(walls, stats.WallTime)
					}
				}
				rates, bws, err := partition.Measured(tr.Spec, cuts, mbs, stats.Times)
				if err != nil {
					t.Fatal(err)
				}
				// A device's link runs at its LinkBandwidth, a link at the
				// slower of its two devices': over three stages that gives
				// each link its measured bandwidth exactly.
				links := []float64{bws[0], max(bws[0], bws[1]), bws[1]}
				cfg := &pipeline.Config{Spec: tr.Spec, MicroBatchSize: mbs, NumMicroBatches: rows / mbs}
				for s := range 3 {
					dev := &device.Device{Name: strconv.Itoa(s), ComputeRate: rates[s], LinkBandwidth: links[s], LoadFactor: 1, MemoryBytes: 1 << 40}
					cfg.Stages = append(cfg.Stages, pipeline.Stage{Device: dev, From: s, To: s + 1})
				}
				res, err := pipeline.Schedule(cfg)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(walls)
				wall := walls[len(walls)/2].Seconds()
				ratio := res.RoundTime / wall
				fmt.Fprintf(&report, "\nwindow %d: ratio %.3f, predicted %.3f ms, measured median %.3f ms (K %v simulated, %v run); smoothed per stage, µs:",
					w, ratio, res.RoundTime*1e3, wall*1e3, res.Ks, stats.Residency)
				for s, st := range stats.Times {
					fmt.Fprintf(&report, " [%d] Tf %.1f Tb %.1f CommF %.1f CommB %.1f", s, st.Tf*1e6, st.Tb*1e6, st.CommF*1e6, st.CommB*1e6)
				}
				for i, u := range stats.StageUtilization() {
					if u < 0 || u > 1.5 { // >1 impossible modulo clock skew; 1.5 guards noise
						t.Fatalf("stage %d utilization %.2f out of range", i, u)
					}
				}
				if ratio >= lo && ratio <= hi {
					t.Log(report.String())
					return
				}
			}
			t.Fatalf("Schedule's round time from the measured profile over the prototype's median, in %d windows, none within [%g, %g]:%s",
				windows, lo, hi, report.String())
		})
	}
}
