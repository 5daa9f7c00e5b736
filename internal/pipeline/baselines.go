package pipeline

import (
	"fmt"
	"math"

	"ecofl/internal/device"
	"ecofl/internal/model"
)

// SingleResult describes training a full model on one device (no pipeline).
type SingleResult struct {
	Device          *device.Device
	BatchTime       float64 // seconds per mini-batch
	Throughput      float64 // samples per second
	PeakMemoryBytes float64
}

// SingleDevice models conventional on-device training of the whole model.
func SingleDevice(spec *model.Spec, dev *device.Device, batchSize int) (*SingleResult, error) {
	n := spec.NumLayers()
	mem := spec.SegmentParamBytes(0, n)*ParamMemFactor + BaseOverheadBytes +
		spec.SegmentResidentBytes(0, n)*float64(batchSize)
	if mem > float64(dev.MemoryBytes) {
		return nil, fmt.Errorf("%w: %s needs %.2f GB for batch %d, has %.2f GB",
			ErrOOM, dev.Name, mem/1e9, batchSize, float64(dev.MemoryBytes)/1e9)
	}
	t := spec.TotalFwdFLOPs() * (1 + model.BackwardFactor) * float64(batchSize) / dev.EffectiveRateAt(batchSize)
	return &SingleResult{
		Device:          dev,
		BatchTime:       t,
		Throughput:      float64(batchSize) / t,
		PeakMemoryBytes: mem,
	}, nil
}

// DPResult describes synchronous data-parallel training across devices.
type DPResult struct {
	Devices    []*device.Device
	BatchTime  float64 // seconds per global mini-batch (compute + sync)
	Throughput float64
	// ComputeTime and SyncTime decompose BatchTime; TransmissionShare is
	// SyncTime/BatchTime — the §6.3 "transmission overhead can occupy
	// 66.29%" metric.
	ComputeTime, SyncTime float64
	TransmissionShare     float64
	PeakMemoryBytes       []float64
}

// DataParallel models EDDL-style synchronous data parallelism: every device
// holds a full model replica, the global batch is split proportionally to
// device compute rates (the paper's "evenly distribute the workload to
// heterogeneous devices based on their training speed"), and gradients are
// synchronized through the portal device after every mini-batch.
func DataParallel(spec *model.Spec, devs []*device.Device, globalBatch int) (*DPResult, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("pipeline: data parallelism needs at least one device")
	}
	n := spec.NumLayers()
	paramBytes := spec.SegmentParamBytes(0, n)

	var rateSum float64
	for _, d := range devs {
		rateSum += d.EffectiveRate()
	}
	res := &DPResult{Devices: devs}
	perSampleFLOPs := spec.TotalFwdFLOPs() * (1 + model.BackwardFactor)
	for _, d := range devs {
		share := float64(globalBatch) * d.EffectiveRate() / rateSum
		t := share * perSampleFLOPs / d.EffectiveRateAt(int(share))
		if t > res.ComputeTime {
			res.ComputeTime = t
		}
		mem := paramBytes*ParamMemFactor + BaseOverheadBytes + spec.SegmentResidentBytes(0, n)*share
		if mem > float64(d.MemoryBytes) {
			return nil, fmt.Errorf("%w: %s cannot hold a full replica plus its share", ErrOOM, d.Name)
		}
		res.PeakMemoryBytes = append(res.PeakMemoryBytes, mem)
	}
	// Parameter-server exchange at the portal: each remote worker uploads
	// gradients and downloads fresh weights through the portal's link.
	var minBW float64 = math.Inf(1)
	for _, d := range devs {
		if d.LinkBandwidth < minBW {
			minBW = d.LinkBandwidth
		}
	}
	remote := float64(len(devs) - 1)
	res.SyncTime = 2 * paramBytes * remote / minBW
	res.BatchTime = res.ComputeTime + res.SyncTime
	res.Throughput = float64(globalBatch) / res.BatchTime
	if res.BatchTime > 0 {
		res.TransmissionShare = res.SyncTime / res.BatchTime
	}
	return res, nil
}
