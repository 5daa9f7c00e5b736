// Package profiler implements Eco-FL's profiling phase (§4.2): it measures
// each model block's real forward and backward execution time (T_l) and its
// true activation / gradient / parameter byte counts (a_l, g_l, w_l) by
// running the block, then emits a model.Spec the workload partitioner can
// consume. On a deployment this runs once per device before pipeline
// construction; here the measured host time is converted to device time via
// the device's relative compute rate.
package profiler

import (
	"errors"
	"math/rand"
	"time"

	"ecofl/internal/model"
	"ecofl/internal/tensor"
)

// BlockProfile is the measurement for one block.
type BlockProfile struct {
	Name            string
	FwdTime         time.Duration // per batch of the profiled size
	BwdTime         time.Duration
	ActivationBytes float64 // per sample
	GradientBytes   float64
	ResidentBytes   float64
	ParamBytes      float64
}

// Result is a full profiling pass.
type Result struct {
	Batch  int
	Blocks []BlockProfile
}

// Profile executes every block of the trainable reps times on a synthetic
// batch and records median-free average timings plus exact byte counts.
// The trainable's first block must accept a (batch × inDim) input described
// by its Spec.InputBytes (8 bytes per feature).
func Profile(rng *rand.Rand, tr *model.Trainable, batch, reps int) (*Result, error) {
	if batch <= 0 || reps <= 0 {
		return nil, errors.New("profiler: batch and reps must be positive")
	}
	shape := tr.InputShape
	if len(shape) == 0 {
		dim := int(tr.Spec.InputBytes / 8)
		if dim <= 0 {
			return nil, errors.New("profiler: trainable reports no input size")
		}
		shape = []int{dim}
	}
	x := tensor.Randn(rng, 1, append([]int{batch}, shape...)...)
	res := &Result{Batch: batch}
	for b := range tr.Blocks {
		seg := tr.SegmentNet(b, b+1)
		// Warm-up + measure forward.
		out, cache := seg.Forward(x)
		dy := tensor.New(out.Shape...)
		dy.Fill(1e-3)
		var fwd, bwd time.Duration
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			out, cache = seg.Forward(x)
			fwd += time.Since(t0)
			t0 = time.Now()
			seg.Backward(cache, dy)
			bwd += time.Since(t0)
		}
		seg.ZeroGrads()
		actBytes := float64(out.Len()) * 8 / float64(batch)
		res.Blocks = append(res.Blocks, BlockProfile{
			Name:            tr.Spec.Layers[b].Name,
			FwdTime:         fwd / time.Duration(reps),
			BwdTime:         bwd / time.Duration(reps),
			ActivationBytes: actBytes,
			GradientBytes:   actBytes,
			ResidentBytes:   float64(x.Len())*8/float64(batch) + actBytes,
			ParamBytes:      float64(seg.NumParams()) * 8,
		})
		x = out // next block's input
	}
	return res, nil
}

// Spec converts the measurements into a model.Spec. refRate is the
// measuring host's assumed compute rate in FLOP/s: measured seconds become
// cost units via FwdFLOPs = t_fwd × refRate, so partitioning a profiled
// spec on devices with the paper's relative rates reproduces their relative
// stage times.
func (r *Result) Spec(name string, refRate float64) *model.Spec {
	spec := &model.Spec{Name: name}
	if len(r.Blocks) > 0 {
		spec.InputBytes = r.Blocks[0].ResidentBytes - r.Blocks[0].ActivationBytes
	}
	for _, b := range r.Blocks {
		spec.Layers = append(spec.Layers, model.LayerCost{
			Name:            b.Name,
			FwdFLOPs:        b.FwdTime.Seconds() / float64(r.Batch) * refRate,
			ActivationBytes: b.ActivationBytes,
			GradientBytes:   b.GradientBytes,
			ResidentBytes:   b.ResidentBytes,
			ParamBytes:      b.ParamBytes,
		})
	}
	return spec
}

// MeasuredBackwardFactor reports the empirically observed BP/FP time ratio
// across all blocks — a check on the model.BackwardFactor ≈ 2 rule.
func (r *Result) MeasuredBackwardFactor() float64 {
	var f, bw float64
	for _, b := range r.Blocks {
		f += b.FwdTime.Seconds()
		bw += b.BwdTime.Seconds()
	}
	if f == 0 {
		return 0
	}
	return bw / f
}
