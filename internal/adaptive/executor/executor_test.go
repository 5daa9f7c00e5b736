package executor

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecofl/internal/adaptive"
	"ecofl/internal/device"
	"ecofl/internal/flnet/wire"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/obs/journal/journaltest"
	"ecofl/internal/obs/leakcheck"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
	"ecofl/internal/pipeline/runtime"
	"ecofl/internal/simnet"
	"ecofl/internal/tensor"
)

func makeData(rng *rand.Rand, n, dim, classes int) (*tensor.Tensor, []int) {
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = rng.Intn(classes)
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	return x, labels
}

func fleet() []*device.Device {
	return []*device.Device{device.TX2N(), device.TX2Q(), device.NanoH()}
}

// trainRef trains an identically-seeded model for the same rounds on a
// fault-free single-stage pipeline — the bit-identity oracle
// (1F1B-Sync gradient accumulation is partition-independent).
func trainRef(t *testing.T, seed int64, rounds int, x *tensor.Tensor, labels []int, mbs int, lr float64) []float64 {
	t.Helper()
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "ref", x.Cols(), []int{14, 12, 10}, 4)
	p, err := runtime.NewDistributed(tr, nil, nil)
	if err != nil {
		t.Fatalf("ref pipeline: %v", err)
	}
	opt := &nn.SGD{LR: lr}
	for r := 0; r < rounds; r++ {
		if _, err := p.TrainSyncRound(x, labels, mbs, opt); err != nil {
			t.Fatalf("ref round %d: %v", r, err)
		}
	}
	return tr.Network().FlatWeights()
}

func weightsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKillFailoverBitIdentical kills two of three devices at scheduled
// rounds; the executor must detect each death through the live abort path,
// re-partition the survivors, execute the weight migration, and finish with
// a model bit-identical to a fault-free run.
func TestKillFailoverBitIdentical(t *testing.T) {
	const seed, mbs, rounds, lr = 42, 6, 6, 0.05
	rng := rand.New(rand.NewSource(7))
	x, labels := makeData(rng, 24, 12, 4)
	baseline := leakcheck.Baseline()

	rec := journal.New(0, 512)
	journaltest.DumpOnFailure(t, 80, rec)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "ref", 12, []int{14, 12, 10}, 4)
	exec, err := New(Config{
		Trainable:      tr,
		Devices:        fleet(),
		MicroBatchSize: mbs,
		LinkOptions:    runtime.LinkOptions{RecvTimeout: 2 * time.Second, DialRetries: 2},
		Journal:        rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	exec.ScheduleKill(2, 1) // mid-fleet device dies before round 2
	exec.ScheduleKill(4, 0) // then the head device: single survivor

	opt := &nn.SGD{LR: lr}
	for r := 0; r < rounds; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}

	st := exec.Stats()
	if st.Rounds != rounds {
		t.Fatalf("committed %d rounds, want %d", st.Rounds, rounds)
	}
	if st.Aborts < 2 || st.Migrations < 2 {
		t.Fatalf("expected >=2 aborts and >=2 migrations, got %+v", st)
	}
	if st.MigratedBytes == 0 {
		t.Fatalf("executed migration shipped no bytes: %+v", st)
	}
	if st.LastDetectLatency <= 0 || st.LastMigrationTime <= 0 {
		t.Fatalf("missing detection/migration timings: %+v", st)
	}
	if got := len(exec.Stages()); got != 1 {
		t.Fatalf("expected 1 surviving stage, got %d", got)
	}
	want := trainRef(t, seed, rounds, x, labels, mbs, lr)
	if !weightsEqual(exec.Network().FlatWeights(), want) {
		t.Fatal("recovered model is not bit-identical to the fault-free run")
	}
	// Two kills and two migrations later, nothing may still be running:
	// stage goroutines, link readers, and heal machinery all unwound.
	leakcheck.Check(t, baseline)
}

// TestKillDeviceSeversHeldLinks: the pipeline holds its links between clean
// rounds, so the connections KillDevice taps are the very ones the next
// round would reuse. Killing a device between rounds must close them: the
// next round aborts on them, heals onto the survivors and commits, and the
// model stays bit-identical to a fault-free run.
func TestKillDeviceSeversHeldLinks(t *testing.T) {
	const seed, mbs, rounds, lr = 42, 6, 4, 0.05
	x, labels := makeData(rand.New(rand.NewSource(7)), 24, 12, 4)
	var mu sync.Mutex
	var dialed []net.Conn
	pipes := runtime.PipeLinks()
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "ref", 12, []int{14, 12, 10}, 4)
	exec, err := New(Config{
		Trainable:      tr,
		Devices:        fleet(),
		MicroBatchSize: mbs,
		Monitor:        &adaptive.Monitor{Threshold: math.Inf(1)}, // no rebalancing: the kill is the only event
		Links: func(i int) (net.Conn, net.Conn, error) {
			up, down, err := pipes(i)
			mu.Lock()
			dialed = append(dialed, up, down)
			mu.Unlock()
			return up, down, err
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	opt := &nn.SGD{LR: lr}
	for r := 0; r < rounds/2; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	stages := exec.Stages()
	mu.Lock()
	held := slices.Clone(dialed)
	mu.Unlock()
	if len(stages) < 2 || len(held) != 2*(len(stages)-1) {
		t.Fatalf("%d clean rounds on %d stages dialed %d connections, want each link once", rounds/2, len(stages), len(held))
	}
	exec.KillDevice(exec.devIndex(stages[0].Device))
	// Stage 0's only link is link 0: both of its held ends are closed.
	for _, c := range held[:2] {
		c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if _, err := c.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("KillDevice left a held connection of the dead stage open")
		}
	}
	for r := rounds / 2; r < rounds; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if st := exec.Stats(); st.Rounds != rounds || st.Aborts != 1 || st.Migrations != 1 {
		t.Fatalf("want one abort on the severed links and one migration, got %+v", st)
	}
	if !weightsEqual(exec.Network().FlatWeights(), trainRef(t, seed, rounds, x, labels, mbs, lr)) {
		t.Fatal("recovered model is not bit-identical to the fault-free run")
	}
}

// chaosPerLink memoizes one shared Chaos per link index so the fault
// schedule and open partition windows survive re-dials.
func chaosPerLink(mode simnet.FaultMode, seed int64, prob float64) func(int) *simnet.Chaos {
	var mu sync.Mutex
	links := map[int]*simnet.Chaos{}
	return func(i int) *simnet.Chaos {
		mu.Lock()
		defer mu.Unlock()
		if c, ok := links[i]; ok {
			return c
		}
		c := simnet.NewChaos(simnet.FaultPlan{
			Seed:      seed + int64(i),
			Mode:      mode,
			Prob:      prob,
			After:     4,
			Stall:     400 * time.Millisecond,
			Partition: 120 * time.Millisecond,
		})
		links[i] = c
		return c
	}
}

// TestChaosSoak trains to completion under every fault mode plus a killed
// stage device, and checks the final model stays bit-identical to the
// fault-free oracle — the PR's acceptance scenario.
func TestChaosSoak(t *testing.T) {
	modes := []simnet.FaultMode{
		simnet.FaultDrop, simnet.FaultStall, simnet.FaultBlackHole,
		simnet.FaultSever, simnet.FaultPartition,
	}
	const seed, mbs, lr = 99, 6, 0.05
	// A link sees exactly one Write per frame, 8 per link per round here, so
	// the three-round -short run draws from each seeded schedule ~20 times:
	// it raises the per-write fault probability far enough that every mode's
	// schedule fires inside those rounds.
	rounds, prob := 6, 0.03
	if testing.Short() {
		rounds, prob = 3, 0.08
	}
	rng := rand.New(rand.NewSource(11))
	x, labels := makeData(rng, 24, 12, 4)
	want := trainRef(t, seed, rounds, x, labels, mbs, lr)

	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			rec := journal.New(0, 2048)
			journaltest.DumpOnFailure(t, 120, rec)
			tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "ref", 12, []int{14, 12, 10}, 4)
			exec, err := New(Config{
				Trainable:      tr,
				Devices:        fleet(),
				MicroBatchSize: mbs,
				Chaos:          chaosPerLink(mode, 1000+int64(mode), prob),
				MaxHeals:       14,
				Journal:        rec,
				LinkOptions: runtime.LinkOptions{
					SendTimeout: 300 * time.Millisecond,
					RecvTimeout: 250 * time.Millisecond,
					RecvBudget:  1500 * time.Millisecond,
					Heartbeat:   50 * time.Millisecond,
					DialRetries: 4,
					JitterSeed:  int64(mode) + 1,
				},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			exec.ScheduleKill(rounds/2, 1)
			opt := &nn.SGD{LR: lr}
			for r := 0; r < rounds; r++ {
				if _, err := exec.TrainRound(x, labels, opt); err != nil {
					t.Fatalf("round %d under %s: %v", r, mode, err)
				}
			}
			st := exec.Stats()
			if st.Rounds != rounds || st.Aborts < 1 || st.Migrations < 1 {
				t.Fatalf("under %s: %+v", mode, st)
			}
			if !weightsEqual(exec.Network().FlatWeights(), want) {
				t.Fatalf("under %s: recovered model diverged from fault-free run", mode)
			}
			// Forensic record: the injected faults logged their cause into
			// the same timeline as the heal steps they triggered, and the
			// kill's heal sequence is causally ordered.
			evs := rec.Events()
			injects := 0
			for _, e := range evs {
				if e.Kind == "chaos.inject" {
					if e.Attrs["mode"] != mode.String() {
						t.Fatalf("chaos.inject wrong mode attr: %+v", e)
					}
					injects++
				}
			}
			if injects == 0 {
				t.Fatalf("under %s: no chaos.inject events in journal:\n%s", mode, journal.Timeline(evs))
			}
			assertHealOrder(t, evs)
		})
	}
}

// TestMonitorTriggeredRebalance loads the device carrying the most layers
// with an external workload that leaves it an eighth of its speed: each
// forward and backward op of its stage sleeps so that a micro-batch's step
// takes eight times the stage's smoothed Tf+Tb. The deviation rule must see
// the measured slowdown, and the re-plan, on the measured rates, must move
// layers off the device.
func TestMonitorTriggeredRebalance(t *testing.T) {
	const seed, mbs, lr, slowdown = 5, 6, 0.05, 8
	rng := rand.New(rand.NewSource(3))
	x, labels := makeData(rng, 24, 12, 4)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "ref", 12, []int{14, 12, 10}, 4)
	exec, err := New(Config{Trainable: tr, Devices: fleet(), MicroBatchSize: mbs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	opt := &nn.SGD{LR: lr}
	for r := 0; r < 5; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("warm-up round %d: %v", r, err)
		}
	}
	stages := exec.Stages()
	loaded, width := 0, 0
	for s, st := range stages {
		if w := st.To - st.From; w > width {
			width = w
			loaded = s
		}
	}
	loadedDev := exec.devIndex(stages[loaded].Device)
	// A loaded stage sleeps once in Forward and once in Backward.
	step := exec.pipe.LastRoundStats().Times[loaded].Compute()
	exec.SetDeviceDelay(loadedDev, time.Duration((slowdown-1)*step/2*float64(time.Second)))
	before := exec.Stats().Migrations
	for r := 0; r < 12; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("loaded round %d: %v", r, err)
		}
		for _, s := range exec.Stages() {
			if s.Device != exec.devs[loadedDev] || s.To-s.From >= width {
				continue
			}
			if got := exec.Stats(); got.Migrations <= before || got.MigratedBytes == 0 {
				t.Fatalf("layout changed without an executed migration: %+v", got)
			}
			return
		}
	}
	t.Fatalf("no re-plan moved layers off the loaded device: %+v, layout %v", exec.Stats(), exec.Stages())
}

// TestUnloadedRunRebuildsNothing: a re-plan whose plan is the layout in
// force is no migration. A two-block model on two devices has one layout,
// so a re-plan between any two rounds must keep the pipeline, the link it
// holds and its estimate, and count nothing. Over the three-device fleet,
// 200 unloaded rounds may re-plan as the estimate moves, but every pipeline
// rebuild must be a counted migration that shipped weights.
func TestUnloadedRunRebuildsNothing(t *testing.T) {
	var dials atomic.Int32
	pipes := runtime.PipeLinks()
	links := func(i int) (net.Conn, net.Conn, error) {
		dials.Add(1)
		return pipes(i)
	}
	x, labels := makeData(rand.New(rand.NewSource(4)), 16, 8, 3)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(2)), "two", 8, []int{10}, 3)
	exec, err := New(Config{Trainable: tr, Devices: fleet()[:2], MicroBatchSize: 4, Links: links})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	opt := &nn.SGD{LR: 0.1}
	for r := 0; r < 20; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		pipe, est := exec.pipe, exec.pipe.LastRoundStats()
		if err := exec.migrateTo(exec.devs); err != nil {
			t.Fatalf("re-plan after round %d: %v", r, err)
		}
		if exec.pipe != pipe || exec.pipe.LastRoundStats() != est {
			t.Fatalf("a re-plan that kept the layout rebuilt the pipeline after round %d", r)
		}
	}
	if st := exec.Stats(); st.Migrations != 0 || st.MigratedBytes != 0 || dials.Load() != 1 {
		t.Fatalf("20 re-plans of the one layout: %+v, link dialed %d times, want no migration and one dial", st, dials.Load())
	}

	const rounds = 200
	x, labels = makeData(rand.New(rand.NewSource(7)), 24, 12, 4)
	tr = model.NewTrainableMLP(rand.New(rand.NewSource(42)), "ref", 12, []int{14, 12, 10}, 4)
	if exec, err = New(Config{Trainable: tr, Devices: fleet(), MicroBatchSize: 6}); err != nil {
		t.Fatalf("New: %v", err)
	}
	rebuilds := 0
	for r := 0; r < rounds; r++ {
		pipe := exec.pipe
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if exec.pipe != pipe {
			rebuilds++
		}
	}
	st := exec.Stats()
	t.Logf("%d unloaded rounds: %d pipeline rebuilds, %+v", rounds, rebuilds, st)
	if rebuilds != st.Migrations || st.Migrations > 0 && st.MigratedBytes == 0 {
		t.Fatalf("%d rebuilds in %d unloaded rounds, against %+v: a rebuild that moved no layer", rebuilds, rounds, st)
	}
}

// TestReplanReadsTheEstimate: a re-plan rates each device and link from the
// pipeline's estimate (partition.Measured). With the middle device gone, the
// survivors either side of it never shared a link: it is rated at the
// slowest bandwidth measured, and the new pipeline's starting estimate
// predicts its one-way times from that bandwidth, and each stage's times
// from its device's measured ones scaled by the segments' FLOPs. Before
// anything was measured, the plan is the presets' alone.
func TestReplanReadsTheEstimate(t *testing.T) {
	const mbs = 6
	x, labels := makeData(rand.New(rand.NewSource(7)), 24, 12, 4)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(42)), "ref", 12, []int{14, 12, 10}, 4)
	exec, err := New(Config{Trainable: tr, Devices: fleet(), MicroBatchSize: mbs,
		Monitor: &adaptive.Monitor{Threshold: math.Inf(1)}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stages := exec.Stages()
	survivors := []*device.Device{stages[0].Device, stages[2].Device}
	preset, err := partition.DynamicProgrammingBatch(tr.Spec, survivors, mbs)
	if err != nil {
		t.Fatal(err)
	}
	plan, est, err := exec.replan(survivors)
	if err != nil || est != nil || !slices.Equal(plan.Stages, preset.Stages) {
		t.Fatalf("a re-plan before any round: %v, estimate %v, layout %v; want the presets' %v", err, est, plan, preset.Stages)
	}
	opt := &nn.SGD{LR: 0.05}
	for r := 0; r < 5; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	times := exec.pipe.LastRoundStats().Times
	_, bws, err := partition.Measured(tr.Spec, partition.Cuts(stages), mbs, times)
	if err != nil {
		t.Fatal(err)
	}
	if plan, est, err = exec.replan(survivors); err != nil || len(est) != 2 {
		t.Fatalf("re-plan over two survivors: %v, estimate %v", err, est)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	cut := plan.Stages[0].To
	slowest := min(bws[0], bws[1])
	if f, b := tr.Spec.CutActivationBytes(cut)*mbs/slowest, tr.Spec.CutGradientBytes(cut)*mbs/slowest; !near(est[0].CommF, f) || !near(est[0].CommB, b) {
		t.Fatalf("the unshared link's predicted one-way times are %g and %g s, want %g and %g at the slowest measured bandwidth %g B/s",
			est[0].CommF, est[0].CommB, f, b, slowest)
	}
	for i, st := range plan.Stages {
		old := stages[2*i] // survivor i ran stage 0 or 2
		if st.Device != survivors[i] {
			t.Fatalf("stage %d runs on %v, want survivor %v", i, st.Device, survivors[i])
		}
		f := tr.Spec.SegmentFwdFLOPs(st.From, st.To) / tr.Spec.SegmentFwdFLOPs(old.From, old.To)
		if !near(est[i].Tf, times[2*i].Tf*f) || !near(est[i].Tb, times[2*i].Tb*f) {
			t.Fatalf("stage %d's predicted times %+v, want the measured %+v scaled by %g", i, est[i], times[2*i], f)
		}
	}
}

// TestNoSurvivors verifies the terminal failure: killing every device makes
// TrainRound return ErrNoSurvivors instead of retrying forever.
func TestNoSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, labels := makeData(rng, 12, 8, 3)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(2)), "tiny", 8, []int{10}, 3)
	exec, err := New(Config{Trainable: tr, Devices: fleet()[:2], MicroBatchSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	exec.KillDevice(0)
	exec.KillDevice(1)
	if _, err := exec.TrainRound(x, labels, &nn.SGD{LR: 0.1}); !errors.Is(err, ErrNoSurvivors) {
		t.Fatalf("want ErrNoSurvivors, got %v", err)
	}
}

// TestConfigValidation covers the constructor's rejection paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(2)), "tiny", 8, []int{10}, 3)
	if _, err := New(Config{Trainable: tr, Devices: fleet()}); err == nil {
		t.Fatal("zero micro-batch size accepted")
	}
}

// TestMovedRangesDiff checks the layout diff used by the migration
// executor: only layers whose owning device changed are shipped, as
// contiguous runs.
func TestMovedRangesDiff(t *testing.T) {
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(9)), "diff", 12, []int{14, 12, 10}, 4)
	devs := fleet()
	old, err := partition.DynamicProgrammingBatch(tr.Spec, devs, 6)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	same, err := movedRanges(tr.Spec, old.Stages, old.Stages)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if len(same) != 0 {
		t.Fatalf("identical layouts moved %v", same)
	}
	newPlan, err := partition.DynamicProgrammingBatch(tr.Spec, devs[:2], 6)
	if err != nil {
		t.Fatalf("partition survivors: %v", err)
	}
	moved, err := movedRanges(tr.Spec, old.Stages, newPlan.Stages)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if len(moved) == 0 {
		t.Fatal("device removal moved no layers")
	}
	total := 0
	for _, r := range moved {
		if r.to <= r.from {
			t.Fatalf("empty range %+v", r)
		}
		total += r.to - r.from
	}
	if total > tr.Spec.NumLayers() {
		t.Fatalf("moved %d of %d layers", total, tr.Spec.NumLayers())
	}
}

// TestShipSegmentsRejectsBeforeInstall plays the receiving side of a
// migration against frames no honest sender makes. Each must be refused
// with the model exactly as it was — the checks run before SetFlatWeights —
// and the one honest frame, through the same door, must install.
func TestShipSegmentsRejectsBeforeInstall(t *testing.T) {
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(9)), "seg", 8, []int{10}, 3)
	r := movedRange{0, 1}
	n := tr.SegmentNet(r.from, r.to).NumParams()
	honest := make([]float64, n)
	for i := range honest {
		honest[i] = float64(i) / 8
	}
	frame := func(h wire.Header, w []float64) []byte {
		var buf bytes.Buffer
		fw := wire.Writer{W: &buf}
		if err := fw.WriteRawFrame(&h, w, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seg := wire.Header{Kind: wire.KindSegment, A: int32(r.from), B: int32(r.to)}
	poisoned := append([]float64(nil), honest...)
	poisoned[n-1] = math.NaN()
	good := frame(seg, honest)
	for _, tc := range []struct {
		name   string
		stream []byte
		ok     bool
	}{
		{"wrong range start", frame(wire.Header{Kind: wire.KindSegment, A: 1, B: 1}, honest), false},
		{"wrong range end", frame(wire.Header{Kind: wire.KindSegment, A: 0, B: 2}, honest), false},
		{"wrong kind", frame(wire.Header{Kind: wire.KindCheckpoint, A: seg.A, B: seg.B}, honest), false},
		{"wrong length", frame(seg, honest[:n-1]), false},
		{"NaN", frame(seg, poisoned), false},
		{"truncated", good[:len(good)-3], false},
		{"not a frame", []byte("]\x7f\x03\x01\x01\nsegment"), false},
		{"honest", good, true},
	} {
		var incoming io.Reader = bytes.NewReader(tc.stream)
		exec, err := New(Config{Trainable: tr, Devices: fleet()[:1], MicroBatchSize: 4,
			Links: func(int) (net.Conn, net.Conn, error) {
				// The executor's own sender talks to nobody; what arrives
				// is the test's stream — once the sender's one frame is out,
				// as on a real link, where nothing arrives before it is sent.
				up, drain := net.Pipe()
				down, feed := net.Pipe()
				go func() {
					io.CopyN(io.Discard, drain, int64(len(good)))
					io.Copy(feed, incoming)
					feed.Close()
					io.Copy(io.Discard, drain)
				}()
				return up, down, nil
			}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		before := tr.Network().FlatWeights()
		shipped, err := exec.shipSegments([]movedRange{r}, 0)
		after := tr.Network().FlatWeights()
		switch {
		case tc.ok && (err != nil || shipped != int64(8*n) || !weightsEqual(after[:n], honest)):
			t.Fatalf("%s: shipped %d, err %v, installed %v", tc.name, shipped, err, after[:n])
		case !tc.ok && (err == nil || shipped != 0 || !weightsEqual(before, after)):
			t.Fatalf("%s: err %v, shipped %d, model changed: %v", tc.name, err, shipped, !weightsEqual(before, after))
		}
	}
}

// Stages and Network let these tests read the executor's layout and model;
// the program reads neither back.

// Stages returns the current stage layout (device + layer range per stage).
func (e *Executor) Stages() []pipeline.Stage {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]pipeline.Stage(nil), e.stages...)
}

// Network returns the trained network (shared parameters).
func (e *Executor) Network() *nn.Network { return e.cfg.Trainable.Network() }
