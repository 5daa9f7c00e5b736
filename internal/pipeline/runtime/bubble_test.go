//go:build goexperiment.synctest

package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/synctest"
	"time"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
)

// This file runs the pipeline in a testing/synctest bubble (go1.24's
// experimental API, built with GOEXPERIMENT=synctest): computing takes no
// time there, and the clock moves only when every goroutine of the bubble
// is blocked, to the next timer. The only timers are an emulated device's
// sleep (Emulate) and a throttled link's pacing (ThrottledLinks), so a
// round's timeline is a pure function of the schedule the stages executed.

// TestScheduleIsExecuted holds the runtime to pipeline.Schedule to the
// nanosecond. Each row plans the partitioner's layout of a four-block MLP
// over Table 1 presets, each stage emulating its device (Config.Times at
// the micro-batch size), over links throttled to one bandwidth. Rows cover
// m below the stage count (K_s < S−s), links that cost far more than
// compute and about as much, and a first device at a thousandth of its
// speed, so that compute dominates. From the second round on (the first
// runs K_s = S−s, before anything was measured), each round's estimate,
// RoundStats.Times, is what the run measured: each stage's Tf and Tb must
// be its device's to 1 ns, and pipeline.ScheduleTimes fed those times must
// give the K the round ran, its WallTime, and every forward and backward
// op's end to 1 ns.
func TestScheduleIsExecuted(t *testing.T) {
	fleets := [][]string{{"TX2-N", "TX2-Q", "Nano-H"}, {"Nano-L", "TX2-N"}, {"Nano-H", "Nano-L", "TX2-Q", "TX2-N"}}
	ms, mbss, bws, loads := []int{1, 2, 4, 8}, []int{4, 16}, []float64{1e6, 1e7, 1e9}, []float64{1, 1e-3}
	if testing.Short() { // the race pass
		fleets, ms, mbss = fleets[:1], []int{2, 4}, mbss[:1]
	}
	for _, names := range fleets {
		for _, m := range ms {
			for _, mbs := range mbss {
				for _, bw := range bws {
					for _, load := range loads {
						name := fmt.Sprintf("%v/m=%d/mbs=%d/bw=%g/load=%g", names, m, mbs, bw, load)
						t.Run(name, func(t *testing.T) {
							synctest.Run(func() { scheduleIsExecuted(t, names, m, mbs, bw, load) })
						})
					}
				}
			}
		}
	}
}

// scheduleIsExecuted is one row of TestScheduleIsExecuted. Its assertions
// stay inside the bubble: the race detector of go1.24.0 flags what a bubble
// wrote and the test reads after it.
func scheduleIsExecuted(t *testing.T, names []string, m, mbs int, bw, load float64) {
	const rounds = 4
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(1)), "bubble", 16, []int{64, 128, 32}, 4)
	var devs []*device.Device
	for _, n := range names {
		d, err := device.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		d.LinkBandwidth = bw
		devs = append(devs, d)
	}
	devs[0].LoadFactor = load
	plan, err := partition.DynamicProgrammingBatch(tr.Spec, devs, mbs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &pipeline.Config{Spec: tr.Spec, Stages: plan.Stages, MicroBatchSize: mbs, NumMicroBatches: m}
	dp, err := NewDistributed(tr, partition.Cuts(plan.Stages), ThrottledLinks(PipeLinks(), bw, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	dp.Emulate(cfg.Times())
	x, labels := makeData(rand.New(rand.NewSource(2)), m*mbs, 16, 4)
	for r := range rounds {
		rec, at := traceRound(dp)
		if _, err := dp.TrainSyncRound(x, labels, mbs, &nn.SGD{LR: 0.01}); err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			continue
		}
		if err := executesSchedule(cfg, dp.LastRoundStats(), rec.Events(), at(dp.round.start)); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

// traceRound attaches a recorder to p whose clock reads nanoseconds, and
// returns it with the conversion of a time to that clock.
func traceRound(p *DistPipeline) (*journal.Recorder, func(time.Time) float64) {
	base := time.Now()
	rec := journal.NewClock(0, 1<<12, func() float64 { return float64(time.Since(base)) })
	p.SetTrace(rec)
	return rec, func(t time.Time) float64 { return float64(t.Sub(base)) }
}

// executesSchedule checks one clean round of a pipeline laid out and
// emulated as cfg says, from its stats and its journal events, whose clock
// reads start when the round started: each stage's measured Tf and Tb are
// cfg.Times()'s, and pipeline.ScheduleTimes over the measured times gives
// the round's K, its WallTime and the end of every op (a pipe.fwd or
// pipe.bwd span), all to 1 ns.
func executesSchedule(cfg *pipeline.Config, st *RoundStats, events []journal.Event, start float64) error {
	const ns = 1e-9
	for s, want := range cfg.Times() {
		if got := st.Times[s]; math.Abs(got.Tf-want.Tf) > ns || math.Abs(got.Tb-want.Tb) > ns {
			return fmt.Errorf("stage %d measured Tf %g, Tb %g; its device takes %g, %g", s, got.Tf, got.Tb, want.Tf, want.Tb)
		}
	}
	res, err := pipeline.ScheduleTimes(cfg, st.Times)
	if err != nil {
		return err
	}
	for s, k := range st.Residency {
		if k != res.Ks[s] {
			return fmt.Errorf("the round ran K %v, Schedule %v (times %+v)", st.Residency, res.Ks, st.Times)
		}
	}
	if d := st.WallTime.Seconds() - res.RoundTime; math.Abs(d) > ns {
		return fmt.Errorf("the round took %v, Schedule %.9f s", st.WallTime, res.RoundTime)
	}
	type op struct {
		stage, micro int
		kind         pipeline.TaskKind
	}
	kinds := map[string]pipeline.TaskKind{"pipe.fwd": pipeline.TaskForward, "pipe.bwd": pipeline.TaskBackward}
	ends := map[op]float64{}
	for _, e := range events {
		if kind, ok := kinds[e.Kind]; ok {
			micro, _ := strconv.Atoi(e.Attrs["micro"])
			ends[op{e.Lane, micro, kind}] = e.TS - start // a span's TS is its end
		}
	}
	ops := 0
	for _, task := range res.Tasks {
		if task.Kind != pipeline.TaskForward && task.Kind != pipeline.TaskBackward {
			continue
		}
		ops++
		got, ok := ends[op{task.Stage, task.Micro, task.Kind}]
		if !ok || math.Abs(got-task.End/ns) > 1 {
			return fmt.Errorf("stage %d's %v of micro-batch %d ended at %.0f ns, Schedule says %.0f ns (times %+v, K %v)",
				task.Stage, task.Kind, task.Micro, got, task.End/ns, st.Times, st.Residency)
		}
	}
	if ops != len(ends) {
		return fmt.Errorf("the round ran %d ops, Schedule %d", len(ends), ops)
	}
	return nil
}
