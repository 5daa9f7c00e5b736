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

// TestMonitorTriggeredRebalance injects an external-load delay on the
// device carrying the most layers; the monitor must see the measured
// per-stage slowdown and the executor must rebalance layers away from it.
func TestMonitorTriggeredRebalance(t *testing.T) {
	if raceEnabled {
		// The DP model's comm term dominates this tiny MLP's stage times, so
		// a cut only moves once the measured slowdown ratio is in the
		// thousands (the test injects 8000× its recorded baseline). Race
		// instrumentation inflates the baseline step time roughly tenfold,
		// so the delay hits its bound short of that ratio — the monitor
		// fires but the repartition keeps the layout. The
		// race-relevant machinery (abort, migration, link teardown) is
		// exercised under -race by TestChaosSoak and
		// TestKillFailoverBitIdentical; this test checks the wall-clock
		// trigger math, which only holds uninstrumented.
		t.Skip("measured-ratio threshold unreachable under race instrumentation")
	}
	const seed, mbs, lr = 5, 6, 0.05
	rng := rand.New(rand.NewSource(3))
	x, labels := makeData(rng, 24, 12, 4)
	tr := model.NewTrainableMLP(rand.New(rand.NewSource(seed)), "ref", 12, []int{14, 12, 10}, 4)
	exec, err := New(Config{Trainable: tr, Devices: fleet(), MicroBatchSize: mbs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	opt := &nn.SGD{LR: lr}
	// Warm-up: seed the monitor history and the baseline step times.
	for r := 0; r < 3; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("warm-up round %d: %v", r, err)
		}
	}
	// Find the device carrying the most layers and load it down.
	stages := exec.Stages()
	loaded, width := 0, 0
	for s, st := range stages {
		if w := st.To - st.From; w > width {
			width = w
			loaded = s
		}
	}
	loadedDev := -1
	for i := range fleet() {
		if exec.devs[i] == stages[loaded].Device {
			loadedDev = i
		}
	}
	if loadedDev < 0 {
		t.Fatal("could not map loaded stage to a fleet device")
	}
	// The executor turns a stage's measured step time into a slowdown ratio
	// against the baseline it recorded for that device, and re-baselines
	// every device after any rebalance — also a spurious one, which a noisy
	// warm-up round can trigger (the threshold is 25%). So first make sure a
	// baseline is on record: the round after a rebalance always records one
	// and cannot itself trigger, the monitor's history being empty.
	baseline := func() float64 {
		exec.mu.Lock()
		defer exec.mu.Unlock()
		return exec.baseStep[loadedDev]
	}
	for r := 0; baseline() == 0; r++ {
		if r == 3 {
			t.Fatal("no baseline step time on record after three more warm-up rounds")
		}
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("re-baselining round %d: %v", r, err)
		}
	}
	// The load must be heavy enough that the measured slowdown drops the
	// device's modelled rate below the point where compute, not link
	// bandwidth, is its stage's bottleneck — otherwise the partitioner
	// rightly keeps the layout. On this model that takes a ratio of ≈ 2,500;
	// the injected delay aims for 8,000 of whatever baseline was recorded
	// (a fixed delay is a fixed ratio only against a noise-free baseline),
	// bounded so that a wildly inflated baseline cannot stall the test. A
	// loaded stage sleeps once in Forward and once in Backward, so a
	// micro-batch step grows by twice the delay.
	const slowdown = 8000
	delay := time.Duration(slowdown / 2 * baseline() * float64(time.Second))
	delay = min(max(delay, 10*time.Millisecond), 500*time.Millisecond)
	// Assert on the first round whose layout shrinks the loaded stage: after
	// a migration the monitor re-baselines with the load included, so later
	// noise can legitimately rebalance again.
	exec.SetDeviceDelay(loadedDev, delay)
	before := exec.Stats().Migrations
	for r := 0; r < 6; r++ {
		if _, err := exec.TrainRound(x, labels, opt); err != nil {
			t.Fatalf("loaded round %d: %v", r, err)
		}
		shrunk := false
		for _, s := range exec.Stages() {
			if s.Device == exec.devs[loadedDev] && s.To-s.From < width {
				shrunk = true
			}
		}
		if shrunk {
			if got := exec.Stats(); got.Migrations <= before || got.MigratedBytes == 0 {
				t.Fatalf("layout changed without an executed migration: %+v", got)
			}
			return
		}
	}
	t.Fatalf("monitor never rebalanced layers off the loaded device: %+v", exec.Stats())
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
