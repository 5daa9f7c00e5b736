// Package adaptive implements Eco-FL's runtime pipeline re-scheduling
// (§4.4): training workers report per-stage execution times to the portal
// node; when a stage's current time deviates from its history beyond a
// threshold, the portal re-runs the heterogeneity-aware partitioner on the
// updated device rates, migrates layer weights to their new stages, and
// restarts the pipeline (Fig. 6). The SpikeExperiment type regenerates the
// Fig. 13 timeline: an external load spike with and without the scheduler.
package adaptive

import (
	"errors"
	"fmt"
	"math"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
)

// Alpha is the weight of a new sample in every smoothed measurement: the
// monitor's history and the pipeline runtime's stage and link estimate.
const Alpha = 0.3

// Smooth folds sample x into the exponential moving average est, weighting x
// by Alpha. An est of zero has folded nothing yet, and x seeds it. A
// negative or non-finite x is refused — est comes back unchanged, with false
// — so one bad reading cannot poison an estimate.
func Smooth(est, x float64) (float64, bool) {
	if !(x >= 0) || math.IsInf(x, 1) {
		return est, false
	}
	if est == 0 {
		return x, true
	}
	return (1-Alpha)*est + Alpha*x, true
}

// Monitor detects execution-time deviations per key. Each report is folded
// into the key's history by Smooth, and a report that deviates relatively
// from the history by more than Threshold is flagged.
type Monitor struct {
	// Threshold is the relative deviation |cur−hist|/hist that triggers
	// re-scheduling. The zero value defaults to 0.25.
	Threshold float64
	history   []float64
}

// Check is the deviation rule of the fleet straggler detector
// (internal/flnet): it folds a measurement for key s into the history and
// returns the relative deviation |cur−hist|/hist from the pre-update history
// plus whether the measurement was slower than history (deviating *fast* is
// not straggling). The first measurement for a key seeds the history and
// reports zero deviation.
func (m *Monitor) Check(s int, execTime float64) (dev float64, slower bool) {
	// Hostile or warm-up inputs never trigger: a negative key and a
	// measurement that is not finite and positive (a clock hiccup, an idle
	// probe) carry no deviation signal.
	if s < 0 || !(execTime > 0) {
		return 0, false
	}
	for len(m.history) <= s {
		m.history = append(m.history, 0)
	}
	h := m.history[s]
	next, ok := Smooth(h, execTime)
	if !ok {
		return 0, false
	}
	m.history[s] = next
	if h == 0 {
		return 0, false
	}
	return math.Abs(execTime-h) / h, execTime > h
}

// Exceeds reports whether a relative deviation crosses the monitor's
// (defaulted) threshold.
func (m *Monitor) Exceeds(dev float64) bool {
	if m.Threshold == 0 {
		m.Threshold = 0.25
	}
	return dev > m.Threshold
}

// History returns the smoothed execution time for key s (0 if unseen).
func (m *Monitor) History(s int) float64 {
	if s >= 0 && s < len(m.history) {
		return m.history[s]
	}
	return 0
}

// MigrationPlan describes moving from one stage layout to another.
type MigrationPlan struct {
	Old, New []pipeline.Stage
	// MovedParamBytes is the total parameter volume that changes device.
	MovedParamBytes float64
	// MigrationTime is the transfer plus restart cost; training throughput
	// is zero during this window (Fig. 13's "Workload Migration & Pipeline
	// Restart").
	MigrationTime float64
}

// PlanMigration computes the data movement needed to go from the old to the
// new layout. Every layer whose owning device changes must ship its
// parameters across the (slowest) link; devices migrate concurrently, so the
// time is the largest per-device outbound volume over its link bandwidth,
// plus a fixed restart overhead.
func PlanMigration(spec *model.Spec, old, new []pipeline.Stage, restartOverhead float64) (*MigrationPlan, error) {
	ownerOf := func(stages []pipeline.Stage, layer int) *device.Device {
		for _, s := range stages {
			if layer >= s.From && layer < s.To {
				return s.Device
			}
		}
		return nil
	}
	outbound := map[*device.Device]float64{}
	var moved float64
	for l := 0; l < spec.NumLayers(); l++ {
		from := ownerOf(old, l)
		to := ownerOf(new, l)
		if from == nil || to == nil {
			return nil, fmt.Errorf("adaptive: layer %d not covered by both layouts", l)
		}
		if from.Name != to.Name || from != to {
			w := spec.SegmentParamBytes(l, l+1)
			moved += w
			outbound[from] += w
		}
	}
	var worst float64
	for d, bytes := range outbound {
		if t := bytes / d.LinkBandwidth; t > worst {
			worst = t
		}
	}
	return &MigrationPlan{
		Old:             old,
		New:             new,
		MovedParamBytes: moved,
		MigrationTime:   worst + restartOverhead,
	}, nil
}

// Reschedule re-runs the partitioner on the devices' current effective
// rates, keeping the device order fixed (migration reorders workload, not
// hardware), and returns the migration plan plus the new schedule. If the
// new layout does not fit at the requested micro-batch size (a migration
// can move large-activation layers onto a small device), the micro-batch
// size is halved until the pipeline fits (§4.3's fallback).
func Reschedule(spec *model.Spec, current []pipeline.Stage, mbs, m int, restartOverhead float64) (*MigrationPlan, *pipeline.Result, error) {
	devs := make([]*device.Device, len(current))
	for i, s := range current {
		devs[i] = s.Device
	}
	var lastErr error
	for tryMbs := mbs; tryMbs >= 1; tryMbs /= 2 {
		plan, err := partition.DynamicProgrammingBatch(spec, devs, tryMbs)
		if err != nil {
			return nil, nil, err
		}
		cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: tryMbs, NumMicroBatches: m}
		res, err := pipeline.Schedule(cfg)
		if err != nil {
			if errors.Is(err, pipeline.ErrOOM) {
				lastErr = err
				continue
			}
			return nil, nil, err
		}
		mig, err := PlanMigration(spec, current, plan.Stages, restartOverhead)
		if err != nil {
			return nil, nil, err
		}
		return mig, res, nil
	}
	return nil, nil, lastErr
}

// ---------------------------------------------------------------- Fig. 13

// SpikeExperiment reproduces the Fig. 13 scenario: a pipeline trains
// steadily until an external GPU workload hits one device; we track
// per-device utilization and pipeline throughput with and without the
// adaptive scheduler.
type SpikeExperiment struct {
	Spec            *model.Spec
	Devices         []*device.Device
	MicroBatchSize  int
	NumMicroBatches int
	// SpikeTime is when the external load arrives; SpikeDevice indexes
	// Devices; SpikeLoadFactor is the training share left (e.g. 0.3).
	SpikeTime       float64
	SpikeDevice     int
	SpikeLoadFactor float64
	// DetectDelay is how long after the spike the portal reacts (workers
	// report periodically); RestartOverhead is the fixed pipeline restart
	// cost added to migration.
	DetectDelay     float64
	RestartOverhead float64
	Duration        float64
	SampleInterval  float64
}

// Sample is one timeline point of the experiment.
type Sample struct {
	Time       float64
	Throughput float64
	// DeviceUtil is each device's total busy fraction, training plus
	// external load — what a GPU utilization probe would show.
	DeviceUtil []float64
}

// Timeline is the Fig. 13 output series.
type Timeline struct {
	Samples []Sample
	// MigrationStart/End bracket the workload-migration window (zero if
	// the scheduler was disabled or never triggered).
	MigrationStart, MigrationEnd float64
}

// Run executes the experiment. withScheduler selects the adaptive path.
func (e *SpikeExperiment) Run(withScheduler bool) (*Timeline, error) {
	if e.SampleInterval <= 0 || e.Duration <= 0 {
		return nil, errors.New("adaptive: need positive Duration and SampleInterval")
	}
	if e.SpikeDevice < 0 || e.SpikeDevice >= len(e.Devices) {
		return nil, fmt.Errorf("adaptive: spike device %d out of range", e.SpikeDevice)
	}
	// A load factor is the training share left: 0 or less would be read as
	// an idle device, and NaN poisons every schedule after the spike.
	if !(e.SpikeLoadFactor > 0 && e.SpikeLoadFactor <= 1) {
		return nil, fmt.Errorf("adaptive: spike load factor %g outside (0, 1]", e.SpikeLoadFactor)
	}
	devs := device.CloneAll(e.Devices)
	plan, err := partition.DynamicProgrammingBatch(e.Spec, devs, e.MicroBatchSize)
	if err != nil {
		return nil, err
	}
	schedule := func(stages []pipeline.Stage) (*pipeline.Result, error) {
		cfg := &pipeline.Config{Spec: e.Spec, Stages: stages, MicroBatchSize: e.MicroBatchSize, NumMicroBatches: e.NumMicroBatches}
		return pipeline.Schedule(cfg)
	}
	before, err := schedule(plan.Stages)
	if err != nil {
		return nil, err
	}

	// Apply the spike and compute the degraded (unmigrated) operating point.
	devs[e.SpikeDevice].LoadFactor = e.SpikeLoadFactor
	degraded, err := schedule(plan.Stages)
	if err != nil {
		return nil, err
	}

	var mig *MigrationPlan
	var after *pipeline.Result
	tl := &Timeline{}
	if withScheduler {
		mig, after, err = Reschedule(e.Spec, plan.Stages, e.MicroBatchSize, e.NumMicroBatches, e.RestartOverhead)
		if err != nil {
			return nil, err
		}
		tl.MigrationStart = e.SpikeTime + e.DetectDelay
		tl.MigrationEnd = tl.MigrationStart + mig.MigrationTime
	}

	utilAt := func(res *pipeline.Result, spiked bool) []float64 {
		out := make([]float64, len(devs))
		for s, st := range res.Config.Stages {
			// Map the stage back to its device position in e.Devices.
			for d := range devs {
				if st.Device == devs[d] {
					out[d] = res.StageUtil[s]
				}
			}
		}
		if spiked {
			ext := 1 - e.SpikeLoadFactor
			out[e.SpikeDevice] = math.Min(1, out[e.SpikeDevice]*e.SpikeLoadFactor+ext)
		}
		return out
	}

	for t := 0.0; t <= e.Duration; t += e.SampleInterval {
		var s Sample
		s.Time = t
		switch {
		case t < e.SpikeTime:
			s.Throughput = before.Throughput
			s.DeviceUtil = utilAt(before, false)
		case withScheduler && t >= tl.MigrationStart && t < tl.MigrationEnd:
			s.Throughput = 0 // pipeline paused for migration + restart
			s.DeviceUtil = utilAt(degraded, true)
			for d := range s.DeviceUtil {
				if d != e.SpikeDevice {
					s.DeviceUtil[d] = 0
				} else {
					s.DeviceUtil[d] = 1 - e.SpikeLoadFactor
				}
			}
		case withScheduler && t >= tl.MigrationEnd:
			s.Throughput = after.Throughput
			s.DeviceUtil = utilAt(after, true)
		default:
			s.Throughput = degraded.Throughput
			s.DeviceUtil = utilAt(degraded, true)
		}
		tl.Samples = append(tl.Samples, s)
	}
	return tl, nil
}
