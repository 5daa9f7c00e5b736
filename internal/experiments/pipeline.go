package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"ecofl/internal/data"
	"ecofl/internal/device"
	"ecofl/internal/fl"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/partition"
	"ecofl/internal/pipeline"
)

// ---------------------------------------------------------------- Fig. 5

// Fig5Row is one pipeline configuration of Fig. 5: a device order and
// micro-batch size with the resulting throughput and per-stage utilization.
type Fig5Row struct {
	Config         string
	Order          []string
	MicroBatchSize int
	Throughput     float64
	StageUtil      []float64
	Ks, Ps         []int
}

// Fig5 reproduces the device-order / micro-batch-size study (§4.3, Fig. 5)
// on EfficientNet with a 3-stage pipeline of one TX2 and two Nanos:
// Config A ⟨TX2, Nano, Nano⟩ mbs=16, Config B ⟨Nano, TX2, Nano⟩ mbs=8,
// Config C ⟨Nano, TX2, Nano⟩ mbs=16.
func Fig5() ([]Fig5Row, error) {
	spec := model.EfficientNet(6)
	const m = 8
	mk := func(name string, devs []*device.Device, mbs int) (Fig5Row, error) {
		plan, err := partition.DynamicProgrammingBatch(spec, devs, mbs)
		if err != nil {
			return Fig5Row{}, err
		}
		cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: mbs, NumMicroBatches: m}
		res, err := pipeline.Schedule(cfg)
		if err != nil {
			return Fig5Row{}, err
		}
		row := Fig5Row{Config: name, MicroBatchSize: mbs, Throughput: res.Throughput,
			StageUtil: res.StageUtil, Ks: res.Ks, Ps: res.Ps}
		for _, d := range devs {
			row.Order = append(row.Order, d.Name)
		}
		return row, nil
	}
	a, err := mk("A", []*device.Device{device.TX2Q(), device.NanoH(), device.NanoH()}, 16)
	if err != nil {
		return nil, err
	}
	b, err := mk("B", []*device.Device{device.NanoH(), device.TX2Q(), device.NanoH()}, 8)
	if err != nil {
		return nil, err
	}
	c, err := mk("C", []*device.Device{device.NanoH(), device.TX2Q(), device.NanoH()}, 16)
	if err != nil {
		return nil, err
	}
	return []Fig5Row{a, b, c}, nil
}

// ---------------------------------------------------------------- Fig. 10/11

// MethodResult is one training method in a Fig. 10/11 panel.
type MethodResult struct {
	Method     string
	Throughput float64 // samples/s
	EpochTime  float64 // seconds per epoch of EpochSamples
	// TransmissionShare is the fraction of round time spent in gradient
	// synchronization (data parallelism only) — the §6.3 66.29% claim.
	TransmissionShare float64
	// Curve maps real measured accuracy-per-epoch onto this method's
	// virtual time axis (time = epoch × EpochTime). All synchronous
	// methods share identical per-epoch dynamics because 1F1B-Sync and
	// synchronous DP are gradient-equivalent to sequential training.
	Curve []fl.Point
}

// Panel is one subplot of Figs. 10/11.
type Panel struct {
	Setting      string
	EpochSamples int
	Methods      []MethodResult
}

type pipeSetting struct {
	name        string
	spec        *model.Spec
	pipeDevs    func() []*device.Device
	singles     func() []*device.Device
	globalBatch int
}

func fig10Settings() []pipeSetting {
	pipe2 := func() []*device.Device { return []*device.Device{device.NanoL(), device.NanoH()} }
	single2 := func() []*device.Device { return []*device.Device{device.NanoH(), device.NanoL()} }
	pipe3 := func() []*device.Device { return []*device.Device{device.TX2Q(), device.NanoH(), device.NanoH()} }
	single3 := func() []*device.Device { return []*device.Device{device.TX2Q(), device.NanoH()} }
	return []pipeSetting{
		{"EfficientNet-B1 @ Pipeline-2", model.EfficientNet(1), pipe2, single2, 256},
		{"MobileNet-W2 @ Pipeline-2", model.MobileNetV2(2), pipe2, single2, 256},
		{"EfficientNet-B4 @ Pipeline-3", model.EfficientNet(4), pipe3, single3, 384},
		{"MobileNet-W3 @ Pipeline-3", model.MobileNetV2(3), pipe3, single3, 384},
	}
}

// bestPipeline searches micro-batch sizes for the best 1F1B-Sync
// configuration at a fixed global mini-batch (M = batch / mbs).
func bestPipeline(spec *model.Spec, devs []*device.Device, globalBatch int) (*partition.Orchestration, error) {
	var best *partition.Orchestration
	for _, mbs := range []int{32, 16, 8, 4} {
		m := globalBatch / mbs
		if m < 2 {
			continue
		}
		o, err := partition.Orchestrate(spec, devs, partition.Options{
			MicroBatchSizes: []int{mbs}, NumMicroBatches: m,
		})
		if err != nil {
			continue
		}
		if best == nil || o.Result.Throughput > best.Result.Throughput {
			best = o
		}
	}
	if best == nil {
		return nil, errors.New("experiments: no feasible pipeline configuration")
	}
	return best, nil
}

// largestFeasibleSingle halves the batch until the model fits on the device.
func largestFeasibleSingle(spec *model.Spec, dev *device.Device, batch int) (*pipeline.SingleResult, error) {
	for b := batch; b >= 1; b /= 2 {
		if res, err := pipeline.SingleDevice(spec, dev, b); err == nil {
			return res, nil
		}
	}
	return nil, fmt.Errorf("experiments: %s cannot train %s at any batch size", dev.Name, spec.Name)
}

// largestFeasibleDP halves the global batch until every replica fits —
// data parallelism must then synchronize gradients more often, which is
// precisely its disadvantage on memory-constrained devices.
func largestFeasibleDP(spec *model.Spec, devs []*device.Device, batch int) (*pipeline.DPResult, error) {
	for b := batch; b >= len(devs); b /= 2 {
		if res, err := pipeline.DataParallel(spec, devs, b); err == nil {
			return res, nil
		}
	}
	return nil, fmt.Errorf("experiments: data parallelism infeasible for %s at any batch size", spec.Name)
}

// accuracyPerEpoch trains a real model once and returns test accuracy after
// each epoch. 1F1B-Sync and synchronous DP are gradient-equivalent to
// sequential training (see internal/pipeline/runtime's tests), so all
// synchronous methods share this per-epoch curve; only their wall-clock
// epoch times differ.
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

// Fig10 reproduces the training-method comparison (§6.3, Figs. 10 and 11):
// for each of the four model/pipeline settings, the throughput, per-epoch
// time, and accuracy-versus-time curve of single-device training (both
// devices), synchronous data parallelism, and the Eco-FL pipeline.
func Fig10(epochSamples, epochs int) ([]Panel, error) {
	accs := accuracyPerEpoch(42, epochs)
	curveFor := func(epochTime float64) []fl.Point {
		var c []fl.Point
		for e, a := range accs {
			c = append(c, fl.Point{Time: float64(e+1) * epochTime, Accuracy: a})
		}
		return c
	}
	var panels []Panel
	for _, s := range fig10Settings() {
		panel := Panel{Setting: s.name, EpochSamples: epochSamples}
		add := func(method string, throughput, share float64) {
			et := float64(epochSamples) / throughput
			panel.Methods = append(panel.Methods, MethodResult{
				Method: method, Throughput: throughput, EpochTime: et,
				TransmissionShare: share, Curve: curveFor(et),
			})
		}
		for _, dev := range s.singles() {
			res, err := largestFeasibleSingle(s.spec, dev, s.globalBatch)
			if err != nil {
				return nil, err
			}
			add(dev.Name+" Only", res.Throughput, 0)
		}
		dp, err := largestFeasibleDP(s.spec, s.pipeDevs(), s.globalBatch)
		if err != nil {
			return nil, err
		}
		add("Data Parallelism", dp.Throughput, dp.TransmissionShare)
		pipe, err := bestPipeline(s.spec, s.pipeDevs(), s.globalBatch)
		if err != nil {
			return nil, err
		}
		add("Eco-FL Pipeline", pipe.Result.Throughput, 0)
		panels = append(panels, panel)
	}
	return panels, nil
}

// ---------------------------------------------------------------- Fig. 12

// Fig12Row compares workload partitioners on one model.
type Fig12Row struct {
	Model      string
	Method     string
	Throughput float64
	StageUtil  []float64
}

// Fig12 reproduces the partitioning comparison (§6.3, Fig. 12): PipeDream's
// homogeneous (uniform-workload) partitioner versus Eco-FL's
// heterogeneity-aware DP on a 2-stage TX2-N + Nano-H pipeline.
func Fig12() ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, spec := range []*model.Spec{model.EfficientNet(1), model.MobileNetV2(2)} {
		devs := []*device.Device{device.TX2N(), device.NanoH()}
		for _, method := range []string{"PipeDream", "Eco-FL Pipe."} {
			var plan *partition.Plan
			var err error
			if method == "PipeDream" {
				plan, err = partition.PipeDreamUniform(spec, devs)
			} else {
				plan, err = partition.DynamicProgrammingBatch(spec, devs, 8)
			}
			if err != nil {
				return nil, err
			}
			cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: 8, NumMicroBatches: 16}
			res, err := pipeline.Schedule(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig12Row{Model: spec.Name, Method: method,
				Throughput: res.Throughput, StageUtil: res.StageUtil})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one line of the GPipe comparison.
type Table2Row struct {
	Strategy       string
	MicroBatchSize int
	NumMicro       int
	OOM            bool
	PeakMemGB      []float64
	StageUtil      []float64
}

// Table2 reproduces the 1F1B-Sync versus GPipe (BAF-Sync) comparison
// (§6.3, Table 2) on EfficientNet-B6 with a 2-stage TX2-N + Nano-H
// pipeline: peak per-stage memory and utilization across micro-batch sizes
// and in-flight micro-batch counts. GPipe must hold all M activations, so
// it runs out of memory where 1F1B-Sync (which throttles residency to
// K_s = min(P_s, Q_s)) still fits.
func Table2() ([]Table2Row, error) {
	spec := model.EfficientNet(6)
	// Usable memory reflects the paper's Jetson deployment where the
	// PyTorch/CUDA runtime reserves a large share of physical RAM: the
	// TX2-N stage has ~2.5 GB and the Nano-H ~1.6 GB for training state.
	mkDevs := func() []*device.Device {
		tx2 := device.TX2N()
		tx2.MemoryBytes = int64(2.5e9)
		nano := device.NanoH()
		nano.MemoryBytes = int64(1.6e9)
		return []*device.Device{tx2, nano}
	}
	var rows []Table2Row
	add := func(strategy pipeline.Strategy, label string, mbs, m int) error {
		devs := mkDevs()
		plan, err := partition.DynamicProgrammingBatch(spec, devs, mbs)
		if err != nil {
			return err
		}
		cfg := &pipeline.Config{Spec: spec, Stages: plan.Stages, MicroBatchSize: mbs,
			NumMicroBatches: m, Strategy: strategy}
		res, err := pipeline.Schedule(cfg)
		row := Table2Row{Strategy: label, MicroBatchSize: mbs, NumMicro: m}
		if err != nil {
			if errors.Is(err, pipeline.ErrOOM) {
				row.OOM = true
				rows = append(rows, row)
				return nil
			}
			return err
		}
		for _, b := range res.PeakMemoryBytes {
			row.PeakMemGB = append(row.PeakMemGB, b/1e9)
		}
		row.StageUtil = res.StageUtil
		rows = append(rows, row)
		return nil
	}
	for _, m := range []int{6, 8} {
		if err := add(pipeline.GPipeBAF, "Gpipe (mbs=8)", 8, m); err != nil {
			return nil, err
		}
	}
	for _, mbs := range []int{8, 16, 32} {
		for _, m := range []int{8, 16} {
			if err := add(pipeline.OneFOneBSync, fmt.Sprintf("Ours (mbs=%d)", mbs), mbs, m); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- printing

// PrintFig5 renders the Fig. 5 rows.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	for _, r := range rows {
		fmt.Fprintf(w, "Config %s %v mbs=%-3d throughput=%7.2f samples/s  util=", r.Config, r.Order, r.MicroBatchSize, r.Throughput)
		for s, u := range r.StageUtil {
			fmt.Fprintf(w, "s%d:%4.1f%% ", s, u*100)
		}
		fmt.Fprintf(w, " K=%v P=%v\n", r.Ks, r.Ps)
	}
}

// PrintPanels renders Figs. 10/11 as epoch-time and throughput tables.
func PrintPanels(w io.Writer, panels []Panel) {
	for _, p := range panels {
		fmt.Fprintf(w, "== %s (epoch = %d samples) ==\n", p.Setting, p.EpochSamples)
		for _, m := range p.Methods {
			fmt.Fprintf(w, "%-18s throughput=%8.2f samples/s  epoch=%8.1f s", m.Method, m.Throughput, m.EpochTime)
			if m.TransmissionShare > 0 {
				fmt.Fprintf(w, "  transmission=%4.1f%%", m.TransmissionShare*100)
			}
			fmt.Fprintln(w)
		}
	}
}

// PrintFig12 renders the partitioner comparison.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-14s throughput=%8.2f samples/s util=", r.Model, r.Method, r.Throughput)
		for s, u := range r.StageUtil {
			fmt.Fprintf(w, "s%d:%4.1f%% ", s, u*100)
		}
		fmt.Fprintln(w)
	}
}

// PrintTable2 renders the GPipe comparison table.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-16s %4s %4s %22s %22s\n", "config", "mbs", "M", "peak mem (GB) s0/s1", "util s0/s1")
	for _, r := range rows {
		if r.OOM {
			fmt.Fprintf(w, "%-16s %4d %4d %22s %22s\n", r.Strategy, r.MicroBatchSize, r.NumMicro, "- OOM -", "-")
			continue
		}
		fmt.Fprintf(w, "%-16s %4d %4d %10.2f /%9.2f %10.1f%% /%8.1f%%\n",
			r.Strategy, r.MicroBatchSize, r.NumMicro,
			r.PeakMemGB[0], r.PeakMemGB[1], r.StageUtil[0]*100, r.StageUtil[1]*100)
	}
}
