//go:build goexperiment.synctest

package executor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/synctest"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/pipeline"
	"ecofl/internal/pipeline/runtime"
)

// TestScheduleIsExecuted runs TestMonitorTriggeredRebalance's load spike in
// a testing/synctest bubble (go1.24's experimental API, built with
// GOEXPERIMENT=synctest), where computing takes no time and only the
// emulated devices and the throttled links move the clock, so the spike
// can be checked exactly. Every round, each stage's estimate of Tf and Tb
// is what its device takes (pipeline.Config.Times over the layout in force)
// folded into the estimate before: to 1 ns once it has settled, and in the
// spiked round the EMA of the two. That round's deviation must re-plan
// layers off the loaded device. Once the new layout's estimate and K have
// settled, pipeline.ScheduleTimes over the estimate must give the round's K
// and its WallTime to 1 ns.
func TestScheduleIsExecuted(t *testing.T) {
	synctest.Run(func() {
		const mbs, lr, slowdown, bw = 6, 0.05, 8, 1e7
		x, labels := makeData(rand.New(rand.NewSource(3)), 24, 12, 4)
		tr := model.NewTrainableMLP(rand.New(rand.NewSource(5)), "ref", 12, []int{14, 12, 10}, 4)
		devs := slowFleet()
		for _, d := range devs {
			d.LinkBandwidth = bw
		}
		exec, err := New(Config{Trainable: tr, Devices: devs, MicroBatchSize: mbs, Links: runtime.ThrottledLinks(runtime.PipeLinks(), bw, 0)})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { exec.pipe.Close() }()
		opt := &nn.SGD{LR: lr}
		// round trains one round and returns the layout it ran on, the
		// devices' times for it and the round's stats (a re-plan after it
		// may have replaced the pipeline).
		round := func() ([]pipeline.Stage, []pipeline.StageTimes, *runtime.RoundStats) {
			stages, pipe := exec.Stages(), exec.pipe
			cfg := pipeline.Config{Spec: tr.Spec, Stages: stages, MicroBatchSize: mbs}
			want := cfg.Times()
			if _, err := exec.TrainRound(x, labels, opt); err != nil {
				t.Fatal(err)
			}
			return stages, want, pipe.LastRoundStats()
		}
		settled := func(got, want []pipeline.StageTimes) bool {
			return slices.EqualFunc(got, want, func(g, w pipeline.StageTimes) bool {
				return math.Abs(g.Tf-w.Tf) <= 1e-9 && math.Abs(g.Tb-w.Tb) <= 1e-9
			})
		}
		for r := range 3 {
			if _, want, st := round(); !settled(st.Times, want) {
				t.Fatalf("unloaded round %d: estimate %+v, devices' times %+v", r, st.Times, want)
			}
		}
		stages := exec.Stages()
		loaded, width := 0, 0
		for s, st := range stages {
			if w := st.To - st.From; w > width {
				loaded, width = s, w
			}
		}
		dev := stages[loaded].Device
		before := exec.pipe.LastRoundStats().Times[loaded]
		dev.LoadFactor = 1.0 / slowdown
		_, want, st := round()
		spiked := st.Times[loaded]
		if wantTf := 0.7*before.Tf + 0.3*want[loaded].Tf; math.Abs(spiked.Tf-wantTf) > 1e-9 {
			t.Fatalf("the spiked stage's Tf went %g → %g, want %g, the EMA with what its device now takes, %g", before.Tf, spiked.Tf, wantTf, want[loaded].Tf)
		}
		moved := false
		for _, s := range exec.Stages() {
			moved = moved || s.Device == dev && s.To-s.From < width
		}
		if !moved || exec.Stats().Migrations != 1 {
			t.Fatalf("the spike re-planned to %v (%+v), want layers moved off %s in one migration", exec.Stages(), exec.Stats(), dev.Name)
		}
		// The new pipeline starts from the re-plan's forecast, and its
		// estimate converges on what the devices take geometrically (an
		// EMA), K following it whole after runtime's switchAfter
		// disagreeing rounds: after 100 rounds the estimate is exact.
		for range 100 {
			stages, want, st = round()
		}
		if !settled(st.Times, want) {
			t.Fatalf("100 rounds after the spike the estimate is %+v, the devices take %+v", st.Times, want)
		}
		cfg := &pipeline.Config{Spec: tr.Spec, Stages: stages, MicroBatchSize: mbs, NumMicroBatches: len(labels) / mbs}
		res, err := pipeline.ScheduleTimes(cfg, st.Times)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Ks, st.Residency) || math.Abs(res.RoundTime-st.WallTime.Seconds()) > 1e-9 {
			t.Fatalf("100 rounds after the spike a round ran K %v in %v; Schedule over its estimate: K %v in %.9f s", st.Residency, st.WallTime, res.Ks, res.RoundTime)
		}
		if got := exec.Stats().Migrations; got != 1 {
			t.Fatalf("%d migrations, want the spike's one", got)
		}
	})
}

// TestKeptPlanReplansOnce: a deviation whose re-plan keeps the layout is
// one re-plan, not one per round while the load holds. The narrowest
// stage's device slows to 1/1.5 of its speed: its estimate climbs past the
// monitor's 25 % over a few rounds and settles at 1.5×, and the DP keeps
// the layout, since the stage holds one block. The estimate that plan read
// becomes the deviation rule's reference, so the rest of the climb (under
// 25 % over it), 100 rounds of the held load and the load's end re-plan
// nothing more.
func TestKeptPlanReplansOnce(t *testing.T) {
	synctest.Run(func() {
		const mbs, slowdown, bw = 6, 1.5, 1e7
		x, labels := makeData(rand.New(rand.NewSource(3)), 24, 12, 4)
		tr := model.NewTrainableMLP(rand.New(rand.NewSource(5)), "ref", 12, []int{14, 12, 10}, 4)
		devs := slowFleet()
		for _, d := range devs {
			d.LinkBandwidth = bw
		}
		exec, err := New(Config{Trainable: tr, Devices: devs, MicroBatchSize: mbs, Links: runtime.ThrottledLinks(runtime.PipeLinks(), bw, 0)})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { exec.pipe.Close() }()
		opt := &nn.SGD{LR: 0.05}
		rounds := func(n int) {
			for range n {
				if _, err := exec.TrainRound(x, labels, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
		rounds(3)
		layout := exec.Stages()
		loaded := 0
		for s, st := range layout {
			if st.To-st.From < layout[loaded].To-layout[loaded].From {
				loaded = s
			}
		}
		dev := layout[loaded].Device
		dev.LoadFactor = 1 / slowdown
		rounds(100)
		if st := exec.Stats(); st.Replans != 1 || st.Migrations != 0 || !slices.Equal(exec.Stages(), layout) {
			t.Fatalf("100 rounds of %s at 1/%g speed: %d re-plans, %d migrations, layout %v → %v; want one re-plan that keeps the layout",
				dev.Name, slowdown, st.Replans, st.Migrations, layout, exec.Stages())
		}
		dev.LoadFactor = 1
		rounds(20)
		if got := exec.Stats().Replans; got != 1 {
			t.Fatalf("the load's end re-planned: %d re-plans, want the one", got)
		}
	})
}
