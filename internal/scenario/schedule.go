package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ecofl/internal/adaptive"
	"ecofl/internal/data"
	"ecofl/internal/device"
	"ecofl/internal/fl"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
)

// Values one figure uses stay constants, not spec fields.
const (
	// epochSamples is Fig. 10's epoch: epoch_s, and the time axis of the
	// accuracy curve, count epochs of this many samples.
	epochSamples = 2000
	// Fig. 13's load spike arrives at spikeAt; the portal reacts
	// spikeDetect seconds later, a pipeline restart costs spikeRestart, and
	// the timeline, sampled every second, ends at spikeHorizon.
	spikeAt, spikeDetect, spikeRestart, spikeHorizon = 100.0, 4.0, 2.0, 200.0
)

// runSchedule plans and schedules the spec's home on the cost model (§4.3,
// §6.3): samples_per_s for every method; per stage s of a pipeline method
// stage_util_s, its residency k_s = min(p_s, q_s) and p_s, and peak_mem_gb_s,
// or oom = 1 when a stage cannot hold its working set; transmission_share
// for data parallelism. With run.rounds it also trains the executable MLP
// for that many epochs and reports the accuracy curve on the method's time
// axis, epoch after epoch of epoch_s seconds: 1F1B-Sync and synchronous data
// parallelism are gradient-equivalent to sequential training, so only their
// epoch time differs. A load spike adds runSpike's metrics.
func runSchedule(spec *Spec, rep *Report) error {
	p := spec.Pipeline
	m, err := model.ByName(p.Model)
	if err != nil {
		return err
	}
	devs := make([]*device.Device, len(p.Devices))
	for i, d := range p.Devices {
		if devs[i], err = device.ByName(d.Name); err != nil {
			return err
		}
		if d.MemoryGB > 0 {
			devs[i].MemoryBytes = int64(math.Round(d.MemoryGB * 1e9))
		}
	}

	var throughput float64
	switch p.Method {
	case MethodSingle:
		for b := p.GlobalBatch; b >= 1 && throughput == 0; b /= 2 {
			if res, err := pipeline.SingleDevice(m, devs[0], b); err == nil {
				throughput = res.Throughput
			}
		}
	case MethodDataParallel:
		// Halving the batch until every replica fits makes data
		// parallelism synchronize more often: its cost on small devices.
		for b := p.GlobalBatch; b >= len(devs) && throughput == 0; b /= 2 {
			if res, err := pipeline.DataParallel(m, devs, b); err == nil {
				throughput = res.Throughput
				rep.setMetric("transmission_share", res.TransmissionShare)
			}
		}
	default:
		res, err := schedulePipeline(m, devs, p)
		if errors.Is(err, pipeline.ErrOOM) {
			rep.setMetric("oom", 1)
			return nil
		}
		if err != nil {
			return err
		}
		rep.setMetric("oom", 0)
		throughput = res.Throughput
		for s := range res.StageUtil {
			rep.setMetric(fmt.Sprintf("stage_util_%d", s), res.StageUtil[s])
			rep.setMetric(fmt.Sprintf("k_%d", s), float64(res.Ks[s]))
			rep.setMetric(fmt.Sprintf("p_%d", s), float64(res.Ps[s]))
			rep.setMetric(fmt.Sprintf("peak_mem_gb_%d", s), res.PeakMemoryBytes[s]/1e9)
		}
		for i, d := range p.Devices {
			if d.LoadFactor != 0 {
				if err := runSpike(m, devs, p, i, d.LoadFactor, rep); err != nil {
					return err
				}
			}
		}
	}
	if throughput == 0 {
		return fmt.Errorf("the %s method cannot train %s on %d devices at any batch size up to %d", p.Method, m.Name, len(devs), p.GlobalBatch)
	}
	rep.setMetric("samples_per_s", throughput)

	if spec.Run.Rounds > 0 {
		epoch := epochSamples / throughput
		rep.setMetric("epoch_s", epoch)
		for e, acc := range accuracyPerEpoch(spec.Seed, spec.Run.Rounds) {
			rep.Curve = append(rep.Curve, fl.Point{Time: float64(e+1) * epoch, Accuracy: acc})
		}
	}
	return nil
}

// schedulePipeline schedules a pipeline method: at a global batch the best
// 1F1B-Sync orchestration over device orders and micro-batch sizes, else
// the method's partition of the model at the spec's configuration.
func schedulePipeline(m *model.Spec, devs []*device.Device, p PipelineSpec) (*pipeline.Result, error) {
	if p.GlobalBatch > 0 {
		var best *pipeline.Result
		for _, mbs := range []int{32, 16, 8, 4} {
			n := p.GlobalBatch / mbs
			if n < 2 {
				continue
			}
			o, err := partition.Orchestrate(m, devs, partition.Options{MicroBatchSizes: []int{mbs}, NumMicroBatches: n})
			if err == nil && (best == nil || o.Result.Throughput > best.Throughput) {
				best = o.Result
			}
		}
		if best == nil {
			return nil, fmt.Errorf("no feasible 1f1b configuration of %s at a global batch of %d", m.Name, p.GlobalBatch)
		}
		return best, nil
	}
	cfg := &pipeline.Config{Spec: m, MicroBatchSize: p.MicroBatchSize, NumMicroBatches: p.MicroBatches}
	var plan *partition.Plan
	var err error
	if p.Method == MethodPipeDream {
		plan, err = partition.PipeDreamUniform(m, devs)
	} else {
		plan, err = partition.DynamicProgrammingBatch(m, devs, p.MicroBatchSize)
	}
	if err != nil {
		return nil, err
	}
	cfg.Stages = plan.Stages
	if p.Method == MethodGPipe {
		cfg.Strategy = pipeline.GPipeBAF
	}
	return pipeline.Schedule(cfg)
}

// runSpike replays Fig. 13 (§4.4): devs[spiked] loses all but load of its
// compute at spikeAt. It reports the pipeline at the horizon without the
// adaptive scheduler (spiked_samples_per_s, spiked_util_d for each device d:
// its busy share, external load included) and with it (recovered_…), and
// the migration window [migration_start_s, migration_end_s) during which
// the re-scheduled pipeline trains nothing.
func runSpike(m *model.Spec, devs []*device.Device, p PipelineSpec, spiked int, load float64, rep *Report) error {
	e := &adaptive.SpikeExperiment{
		Spec:            m,
		Devices:         devs,
		MicroBatchSize:  p.MicroBatchSize,
		NumMicroBatches: p.MicroBatches,
		SpikeTime:       spikeAt,
		SpikeDevice:     spiked,
		SpikeLoadFactor: load,
		DetectDelay:     spikeDetect,
		RestartOverhead: spikeRestart,
		Duration:        spikeHorizon,
		SampleInterval:  1,
	}
	for _, run := range []struct {
		name      string
		scheduler bool
	}{{"spiked", false}, {"recovered", true}} {
		tl, err := e.Run(run.scheduler)
		if err != nil {
			return err
		}
		end := tl.Samples[len(tl.Samples)-1]
		rep.setMetric(run.name+"_samples_per_s", end.Throughput)
		for d, u := range end.DeviceUtil {
			rep.setMetric(fmt.Sprintf("%s_util_%d", run.name, d), u)
		}
		if run.scheduler {
			rep.setMetric("migration_start_s", tl.MigrationStart)
			rep.setMetric("migration_end_s", tl.MigrationEnd)
		}
	}
	return nil
}

// accuracyPerEpoch trains the executable MLP on a seeded Fashion-like set
// and returns its test accuracy after each epoch.
func accuracyPerEpoch(seed int64, epochs int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ds := data.FashionLike(rng, 2000)
	train, test := ds.Split(0.85)
	net := nn.NewMLP(rand.New(rand.NewSource(seed+1)), ds.Dim, 64, ds.NumClasses)
	opt := &nn.SGD{LR: 0.05}
	tx, ty := test.Materialize()
	var accs []float64
	for e := 0; e < epochs; e++ {
		for _, b := range train.Batches(rng, 32) {
			net.TrainBatch(b.X, b.Y, opt)
		}
		accs = append(accs, net.Accuracy(tx, ty))
	}
	return accs
}
