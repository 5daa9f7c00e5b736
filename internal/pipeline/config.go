// Package pipeline implements Eco-FL's edge collaborative pipeline training
// engine (§4): the memory-efficient 1F1B-Sync schedule, the GPipe BAF-Sync
// and PipeDream 1F1B-Async baselines, bubble accounting (SSB/DDB), the
// micro-batch residency rule P_s (Eq. 3), the memory cap Q_s, and per-stage
// utilization/throughput/peak-memory metrics — everything §6.3 measures.
//
// Schedules are computed deterministically from per-stage cost profiles
// (layer FLOPs and byte counts on given devices), so the same engine serves
// both analysis and the prototype runtime.
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"ecofl/internal/device"
	"ecofl/internal/model"
)

// Strategy selects the pipeline scheduling discipline.
type Strategy int

const (
	// OneFOneBSync is Eco-FL's memory-efficient synchronous 1F1B schedule
	// (§4.1): early backward passes release activation memory for reuse,
	// with a flush (weight update) at the end of every sync-round.
	OneFOneBSync Strategy = iota
	// GPipeBAF is GPipe's backward-after-forward synchronous schedule: all
	// M forward micro-batches execute before any backward, so all M
	// activations are resident at the peak.
	GPipeBAF
	// PipeDreamAsync is PipeDream's asynchronous 1F1B: no flush, but each
	// stage must retain one weight version per in-flight micro-batch.
	PipeDreamAsync
)

func (s Strategy) String() string {
	switch s {
	case OneFOneBSync:
		return "1F1B-Sync"
	case GPipeBAF:
		return "BAF-Sync(GPipe)"
	case PipeDreamAsync:
		return "1F1B-Async(PipeDream)"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Stage assigns a contiguous layer range [From, To) of the model to a device.
type Stage struct {
	Device   *device.Device
	From, To int
}

// Config fully describes a pipeline execution to schedule.
type Config struct {
	Spec           *model.Spec
	Stages         []Stage
	MicroBatchSize int
	// NumMicroBatches is M, the number of micro-batches injected per
	// sync-round (the mini-batch is M × MicroBatchSize samples).
	NumMicroBatches int
	Strategy        Strategy
	// Recompute enables activation checkpointing: stages keep only each
	// in-flight micro-batch's boundary input and re-run the forward pass
	// during backward, trading ~one extra forward of compute for a much
	// smaller resident working set (GPipe's re-materialization).
	Recompute bool
}

// Memory-model constants. ParamMemFactor accounts for weights + gradients +
// optimizer state; BaseOverheadBytes is the runtime/framework reserve
// observed even for empty models.
const (
	ParamMemFactor    = 3.0
	BaseOverheadBytes = 300e6
)

// ErrOOM is returned when a stage cannot fit its mandatory working set.
var ErrOOM = errors.New("pipeline: out of memory")

// StageTimes holds the per-micro-batch timing terms of §4.3 for one stage:
// Tf/Tb are the forward/backward compute times (T^s_{t,f}, T^s_{t,b});
// CommF/CommB are the forward-activation and backward-gradient transfer
// times to/from the next stage (T^s_{c,f}, T^s_{c,b}); zero for the last.
type StageTimes struct {
	Tf, Tb       float64
	CommF, CommB float64
}

// Total returns Tf+Tb+CommF+CommB, the numerator of Eq. 3.
func (t StageTimes) Total() float64 { return t.Tf + t.Tb + t.CommF + t.CommB }

// Compute returns Tf+Tb.
func (t StageTimes) Compute() float64 { return t.Tf + t.Tb }

// Validate checks that the stage ranges tile the model exactly.
func (c *Config) Validate() error {
	if c.Spec == nil || len(c.Stages) == 0 {
		return errors.New("pipeline: config needs a spec and at least one stage")
	}
	if c.MicroBatchSize <= 0 || c.NumMicroBatches <= 0 {
		return fmt.Errorf("pipeline: micro-batch size %d and count %d must be positive",
			c.MicroBatchSize, c.NumMicroBatches)
	}
	next := 0
	for i, st := range c.Stages {
		if st.From != next || st.To <= st.From {
			return fmt.Errorf("pipeline: stage %d range [%d,%d) does not tile the model", i, st.From, st.To)
		}
		if st.Device == nil {
			return fmt.Errorf("pipeline: stage %d has no device", i)
		}
		// A NaN or infinite rate would reach the residency rule as an
		// integer of any size; a non-positive one is no device at all.
		if r := st.Device.EffectiveRate(); !(r > 0) || math.IsInf(r, 1) {
			return fmt.Errorf("pipeline: stage %d (%s) has effective rate %g FLOP/s, want finite and positive", i, st.Device.Name, r)
		}
		next = st.To
	}
	if next != c.Spec.NumLayers() {
		return fmt.Errorf("pipeline: stages cover %d layers, model has %d", next, c.Spec.NumLayers())
	}
	return nil
}

// Times computes the per-stage timing terms on the current device rates.
func (c *Config) Times() []StageTimes {
	S := len(c.Stages)
	out := make([]StageTimes, S)
	mbs := float64(c.MicroBatchSize)
	for s, st := range c.Stages {
		fl := c.Spec.SegmentFwdFLOPs(st.From, st.To) * mbs
		rate := st.Device.EffectiveRateAt(c.MicroBatchSize)
		out[s].Tf = fl / rate
		out[s].Tb = fl * model.BackwardFactor / rate
		if c.Recompute {
			// Checkpointing replays the forward pass before backward.
			out[s].Tb += out[s].Tf
		}
		if s < S-1 {
			bw := math.Min(st.Device.LinkBandwidth, c.Stages[s+1].Device.LinkBandwidth)
			out[s].CommF = c.Spec.CutActivationBytes(st.To) * mbs / bw
			out[s].CommB = c.Spec.CutGradientBytes(st.To) * mbs / bw
		}
	}
	return out
}

// ResidencyP returns the optimal number of forward tasks resident per stage
// P_s from the Eq. 3 recurrence (P_{S-1} = 1, iterating backward). With
// negligible inter-stage communication this reduces to P_s = S−s; with
// comm comparable to compute it reaches the paper's P_s = 2(S−s)−1.
//
// It fails closed: a stage whose compute time is not finite and positive, a
// term that is negative or not finite, or a P_s past math.MaxInt32 is an
// error, never an integer — the runtime sizes its stages from measured
// times, and a stage measured at zero must not size the ones before it.
func ResidencyP(times []StageTimes) ([]int, error) {
	S := len(times)
	if S == 0 {
		return nil, errors.New("pipeline: residency of no stages")
	}
	for s, t := range times {
		for _, v := range [...]float64{t.Tf, t.Tb, t.CommF, t.CommB} {
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("pipeline: stage %d times %+v are not finite and non-negative", s, t)
			}
		}
		if !(t.Compute() > 0) {
			return nil, fmt.Errorf("pipeline: stage %d has no compute time", s)
		}
	}
	p := make([]int, S)
	p[S-1] = 1
	for s := S - 1; s >= 1; s-- {
		// Stage s−1 must lead stage s by enough in-flight work to cover
		// stage s's compute plus the transfer across the (s−1, s) link in
		// both directions, normalized by stage s's per-micro-batch time.
		ratio := (times[s].Compute() + times[s-1].CommF + times[s-1].CommB) / times[s].Compute()
		f := math.Ceil(float64(p[s]) + ratio - 1e-9)
		if !(f <= math.MaxInt32) {
			return nil, fmt.Errorf("pipeline: stage %d's residency %g does not fit an int32", s-1, f)
		}
		p[s-1] = int(f)
	}
	return p, nil
}

// residentBytesPerMicroBatch is the activation working set one in-flight
// micro-batch pins on stage s.
func (c *Config) residentBytesPerMicroBatch(s int) float64 {
	st := c.Stages[s]
	if c.Recompute {
		// Only the stage's boundary input stays resident; intermediates
		// are re-materialized during backward (plus one transient replay
		// working set shared across micro-batches, charged once in
		// stageParamBytes' base — conservatively folded into the input
		// term here by a 2× factor).
		return 2 * c.Spec.CutActivationBytes(st.From) * float64(c.MicroBatchSize)
	}
	return c.Spec.SegmentResidentBytes(st.From, st.To) * float64(c.MicroBatchSize)
}

// stageParamBytes is the fixed parameter footprint of stage s, including
// gradient and optimizer state, plus PipeDream's extra weight versions.
func (c *Config) stageParamBytes(s int) float64 {
	st := c.Stages[s]
	w := c.Spec.SegmentParamBytes(st.From, st.To) * ParamMemFactor
	if c.Strategy == PipeDreamAsync {
		// PipeDream stores one historical weight copy per in-flight
		// micro-batch beyond the working copy (S−s versions at stage s).
		versions := float64(len(c.Stages) - s - 1)
		w += c.Spec.SegmentParamBytes(st.From, st.To) * versions
	}
	return w
}

// CapacityQ returns Q_s: the maximum number of forward tasks stage s can
// hold in its available memory (§4.3). Zero means even one micro-batch
// does not fit.
func (c *Config) CapacityQ() []int {
	out := make([]int, len(c.Stages))
	for s := range c.Stages {
		free := float64(c.Stages[s].Device.MemoryBytes) - c.stageParamBytes(s) - BaseOverheadBytes
		per := c.residentBytesPerMicroBatch(s)
		if free <= 0 || per <= 0 {
			out[s] = 0
			continue
		}
		out[s] = int(free / per)
	}
	return out
}

// residency returns (P_s, Q_s, K_s = min(P_s, Q_s)) for the stages' times
// and an error when the chosen strategy cannot fit: GPipe requires Q_s ≥ M
// on every stage (it cannot throttle resident forwards), 1F1B variants
// require Q_s ≥ 1.
func (c *Config) residency(times []StageTimes) (ps, qs, ks []int, err error) {
	if ps, err = ResidencyP(times); err != nil {
		return nil, nil, nil, err
	}
	qs = c.CapacityQ()
	ks = make([]int, len(ps))
	for s := range ps {
		switch c.Strategy {
		case GPipeBAF:
			if qs[s] < c.NumMicroBatches {
				return ps, qs, nil, fmt.Errorf("%w: stage %d (%s) holds %d micro-batches, GPipe needs all %d",
					ErrOOM, s, c.Stages[s].Device.Name, qs[s], c.NumMicroBatches)
			}
			ks[s] = c.NumMicroBatches
		default:
			if qs[s] < 1 {
				return ps, qs, nil, fmt.Errorf("%w: stage %d (%s) cannot hold one micro-batch",
					ErrOOM, s, c.Stages[s].Device.Name)
			}
			k := ps[s]
			if qs[s] < k {
				k = qs[s]
			}
			if k > c.NumMicroBatches {
				k = c.NumMicroBatches
			}
			ks[s] = k
		}
	}
	return ps, qs, ks, nil
}
