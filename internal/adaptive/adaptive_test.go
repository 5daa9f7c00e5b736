package adaptive

import (
	"math"
	"testing"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
)

func TestMonitorDetectsDeviation(t *testing.T) {
	var m Monitor
	exceeds := func(s int, execTime float64) bool {
		dev, _ := m.Check(s, execTime)
		return m.Exceeds(dev)
	}
	if exceeds(0, 1.0) {
		t.Fatal("first report establishes history, no trigger")
	}
	if exceeds(0, 1.05) {
		t.Fatal("5% deviation below default threshold must not trigger")
	}
	if !exceeds(0, 2.0) {
		t.Fatal("~90% deviation must trigger")
	}
	if m.History(0) <= 1.0 {
		t.Fatal("EMA must move toward recent reports")
	}
	if m.History(5) != 0 {
		t.Fatal("unknown stage history must be 0")
	}
}

func TestMonitorCheckDirectionAndDeviation(t *testing.T) {
	var m Monitor
	if dev, slower := m.Check(0, 1.0); dev != 0 || slower {
		t.Fatalf("first check seeds history, got dev=%v slower=%v", dev, slower)
	}
	// Slower than history: positive deviation, slower=true.
	dev, slower := m.Check(0, 2.0)
	if !slower || dev < 0.99 || dev > 1.01 {
		t.Fatalf("2.0 vs history 1.0: dev=%v slower=%v, want ~1.0/true", dev, slower)
	}
	if !m.Exceeds(dev) {
		t.Fatal("100% deviation must exceed the default threshold")
	}
	// Faster than the (now EMA-raised) history: deviating but not slower.
	dev, slower = m.Check(0, 0.1)
	if slower {
		t.Fatal("0.1 against raised history must not read as slower")
	}
	if !m.Exceeds(dev) {
		t.Fatalf("large fast deviation %v must still exceed the threshold", dev)
	}
	if m.Exceeds(0.1) {
		t.Fatal("10% is below the default 25% threshold")
	}
}

func TestMonitorPerStageIsolation(t *testing.T) {
	var m Monitor
	m.Check(0, 1.0)
	m.Check(1, 4.0)
	if dev, _ := m.Check(1, 4.1); m.Exceeds(dev) {
		t.Fatal("stage 1 stable, must not trigger")
	}
	if dev, _ := m.Check(0, 3.0); !m.Exceeds(dev) {
		t.Fatal("stage 0 spiked, must trigger")
	}
}

func spikeExperiment() *SpikeExperiment {
	return &SpikeExperiment{
		Spec:            model.EfficientNet(4),
		Devices:         []*device.Device{device.NanoH(), device.TX2Q(), device.NanoH()},
		MicroBatchSize:  8,
		NumMicroBatches: 8,
		SpikeTime:       100,
		SpikeDevice:     1,
		SpikeLoadFactor: 0.35,
		DetectDelay:     5,
		RestartOverhead: 2,
		Duration:        200,
		SampleInterval:  1,
	}
}

func TestPlanMigrationMovesChangedLayersOnly(t *testing.T) {
	spec := model.EfficientNet(1)
	devs := []*device.Device{device.TX2Q(), device.NanoH()}
	plan, err := partition.DynamicProgramming(spec, devs)
	if err != nil {
		t.Fatal(err)
	}
	// Identity migration: nothing moves.
	mig, err := PlanMigration(spec, plan.Stages, plan.Stages, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mig.MovedParamBytes != 0 {
		t.Fatalf("identity migration moved %v bytes", mig.MovedParamBytes)
	}
	if mig.MigrationTime != 2 {
		t.Fatalf("identity migration time should be restart overhead only, got %v", mig.MigrationTime)
	}
	// Shift the cut by two layers: exactly those layers' params move.
	shifted := []pipeline.Stage{
		{Device: devs[0], From: 0, To: plan.Stages[0].To - 2},
		{Device: devs[1], From: plan.Stages[0].To - 2, To: spec.NumLayers()},
	}
	mig2, err := PlanMigration(spec, plan.Stages, shifted, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.SegmentParamBytes(plan.Stages[0].To-2, plan.Stages[0].To)
	if mig2.MovedParamBytes != want {
		t.Fatalf("moved %v bytes, want %v", mig2.MovedParamBytes, want)
	}
	if mig2.MigrationTime <= 0 {
		t.Fatal("moving layers must take time")
	}
}

func TestRescheduleRebalancesAfterSlowdown(t *testing.T) {
	spec := model.EfficientNet(4)
	devs := []*device.Device{device.NanoH(), device.TX2Q(), device.NanoH()}
	plan, err := partition.DynamicProgramming(spec, devs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: 8, NumMicroBatches: 8}
	healthy, err := pipeline.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Slow down the middle device 3×.
	devs[1].LoadFactor = 0.33
	degraded, err := pipeline.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mig, rebalanced, err := Reschedule(spec, plan.Stages, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mig.MovedParamBytes <= 0 {
		t.Fatal("rescheduling after a 3× slowdown should move layers")
	}
	if rebalanced.Throughput <= degraded.Throughput {
		t.Fatalf("migration must recover throughput: %v → %v", degraded.Throughput, rebalanced.Throughput)
	}
	if rebalanced.Throughput > healthy.Throughput {
		t.Fatalf("rebalanced (%v) cannot exceed the healthy pipeline (%v)", rebalanced.Throughput, healthy.Throughput)
	}
}

func TestSpikeTimelineShapes(t *testing.T) {
	e := spikeExperiment()
	with, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	without, err := e.Run(false)
	if err != nil {
		t.Fatal(err)
	}

	thAt := func(tl *Timeline, time float64) float64 {
		var last float64
		for _, s := range tl.Samples {
			if s.Time > time {
				break
			}
			last = s.Throughput
		}
		return last
	}
	before := thAt(without, 50)
	afterNoSched := thAt(without, 190)
	if afterNoSched >= before {
		t.Fatalf("spike must degrade throughput without scheduler: %v → %v", before, afterNoSched)
	}
	afterSched := thAt(with, 190)
	if afterSched <= afterNoSched {
		t.Fatalf("scheduler must recover throughput: %v vs %v", afterSched, afterNoSched)
	}
	if afterSched > before {
		t.Fatalf("recovered throughput (%v) cannot exceed pre-spike (%v)", afterSched, before)
	}
	// During migration throughput is zero.
	mid := (with.MigrationStart + with.MigrationEnd) / 2
	if thAt(with, mid) != 0 {
		t.Fatal("throughput must be zero during migration/restart")
	}
	if with.MigrationStart < e.SpikeTime {
		t.Fatal("migration cannot start before the spike is detected")
	}
	// The spiked device shows high total utilization after the spike.
	for _, s := range without.Samples {
		if s.Time > e.SpikeTime+1 {
			if s.DeviceUtil[e.SpikeDevice] < 1-e.SpikeLoadFactor {
				t.Fatal("spiked device utilization must include external load")
			}
			break
		}
	}
}

func TestSpikeExperimentValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*SpikeExperiment)
	}{
		{"zero sample interval", func(e *SpikeExperiment) { e.SampleInterval = 0 }},
		{"out-of-range spike device", func(e *SpikeExperiment) { e.SpikeDevice = 9 }},
		{"zero load factor", func(e *SpikeExperiment) { e.SpikeLoadFactor = 0 }},
		{"negative load factor", func(e *SpikeExperiment) { e.SpikeLoadFactor = -1 }},
		{"load factor above 1", func(e *SpikeExperiment) { e.SpikeLoadFactor = 1.5 }},
		{"NaN load factor", func(e *SpikeExperiment) { e.SpikeLoadFactor = math.NaN() }},
	} {
		e := spikeExperiment()
		c.mut(e)
		for _, with := range []bool{true, false} {
			if _, err := e.Run(with); err == nil {
				t.Errorf("%s (scheduler %v) must error", c.name, with)
			}
		}
	}
}

func TestRescheduleFallsBackToSmallerMicroBatch(t *testing.T) {
	spec := model.EfficientNet(6)
	// Tight-memory devices: a migration at mbs=32 cannot fit, the
	// scheduler must fall back to a smaller micro-batch instead of failing.
	tight := func(rate float64) *device.Device {
		d := device.NanoH()
		d.ComputeRate = rate
		d.MemoryBytes = int64(1.2e9)
		return d
	}
	devs := []*device.Device{tight(300e9), tight(150e9)}
	plan, err := partition.DynamicProgrammingBatch(spec, devs, 8)
	if err != nil {
		t.Fatal(err)
	}
	devs[0].LoadFactor = 0.4
	mig, res, err := Reschedule(spec, plan.Stages, 32, 8, 1)
	if err != nil {
		t.Fatalf("fallback should find a feasible micro-batch: %v", err)
	}
	if res.Config.MicroBatchSize >= 32 {
		t.Fatalf("expected a reduced micro-batch, got %d", res.Config.MicroBatchSize)
	}
	if mig == nil || res.Throughput <= 0 {
		t.Fatal("fallback must produce a usable schedule")
	}
}

func TestMonitorHostileAndWarmupInputs(t *testing.T) {
	m := &Monitor{}
	// Negative keys (an unmapped stage after a migration) and non-positive
	// measurements carry no signal and must never trigger or panic.
	if dev, slower := m.Check(-1, 0.5); dev != 0 || slower {
		t.Fatalf("negative key triggered: dev=%v slower=%v", dev, slower)
	}
	if dev, slower := m.Check(2, 0); dev != 0 || slower {
		t.Fatalf("zero measurement triggered: dev=%v slower=%v", dev, slower)
	}
	if dev, slower := m.Check(2, -3); dev != 0 || slower {
		t.Fatalf("negative measurement triggered: dev=%v slower=%v", dev, slower)
	}
	if dev, slower := m.Check(2, math.Inf(1)); dev != 0 || slower {
		t.Fatalf("infinite measurement triggered: dev=%v slower=%v", dev, slower)
	}
	if h := m.History(-1); h != 0 {
		t.Fatalf("negative key has history %v", h)
	}
	// The first real measurement only seeds the history.
	if dev, slower := m.Check(2, 0.5); dev != 0 || slower {
		t.Fatalf("warm-up measurement triggered: dev=%v slower=%v", dev, slower)
	}
	if h := m.History(2); h != 0.5 {
		t.Fatalf("history not seeded: %v", h)
	}
}

// TestSmoothRefusesBadSamples: the one EMA fold seeds an empty estimate,
// weights a new sample by Alpha, and refuses a negative or non-finite one
// without touching the estimate.
func TestSmoothRefusesBadSamples(t *testing.T) {
	est, ok := Smooth(0, 2)
	if !ok || est != 2 {
		t.Fatalf("seeding: %v, %v", est, ok)
	}
	if est, ok = Smooth(est, 4); !ok || math.Abs(est-(0.7*2+0.3*4)) > 1e-15 {
		t.Fatalf("fold: %v, %v", est, ok)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := Smooth(est, bad); ok || got != est {
			t.Fatalf("Smooth(%v, %v) = %v, %v; want the estimate back, refused", est, bad, got, ok)
		}
	}
	if got, ok := Smooth(est, 0); !ok || got != (1-Alpha)*est {
		t.Fatalf("a zero sample is a reading: %v, %v", got, ok)
	}
}
