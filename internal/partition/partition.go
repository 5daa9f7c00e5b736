// Package partition implements Eco-FL's heterogeneity-aware workload
// partitioning (§4.2): the dynamic program of Eq. 1 that balances per-stage
// compute against inter-stage communication on heterogeneous devices, the
// PipeDream-style uniform baseline it is compared to in Fig. 12, and the
// pipeline orchestration search over device orders and micro-batch sizes
// (§4.3, Fig. 5).
package partition

import (
	"errors"
	"fmt"
	"math"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/pipeline"
)

// Plan is a partition of a model onto an ordered device list.
type Plan struct {
	Stages []pipeline.Stage
	// LaggerTime is the dynamic program's objective A(0→L, |D|): the
	// per-sample time of the slowest pipeline stage including its
	// communication term.
	LaggerTime float64
}

// Cuts returns the layer indices at which a stage layout splits the model.
func Cuts(stages []pipeline.Stage) []int {
	cuts := make([]int, 0, len(stages)-1)
	for _, s := range stages[:len(stages)-1] {
		cuts = append(cuts, s.To)
	}
	return cuts
}

// Assignment expands a stage layout into a per-layer owner: out[l] is the
// index of the stage running layer l. It validates that the stages tile
// [0, numLayers) contiguously — the invariant every partitioner output and
// every migration source/target must satisfy. The migration executor diffs
// two assignments to find the layer ranges whose owner changed.
func Assignment(stages []pipeline.Stage, numLayers int) ([]int, error) {
	out := make([]int, numLayers)
	next := 0
	for s, st := range stages {
		if st.From != next || st.To <= st.From || st.To > numLayers {
			return nil, fmt.Errorf("partition: stage %d covers [%d,%d), expected to start at layer %d of %d",
				s, st.From, st.To, next, numLayers)
		}
		for l := st.From; l < st.To; l++ {
			out[l] = s
		}
		next = st.To
	}
	if next != numLayers {
		return nil, fmt.Errorf("partition: stages cover %d of %d layers", next, numLayers)
	}
	return out, nil
}

func linkBandwidth(a, b *device.Device) float64 {
	return math.Min(a.LinkBandwidth, b.LinkBandwidth)
}

// stageTime is T(i→j, n): per-sample forward+backward time of layers [i, j)
// on device d at micro-batch size mbs (0 = asymptotic rate).
func stageTime(spec *model.Spec, d *device.Device, i, j, mbs int) float64 {
	return spec.SegmentFwdFLOPs(i, j) * (1 + model.BackwardFactor) / d.EffectiveRateAt(mbs)
}

// Measured reads §4.2's profile off a running pipeline: it turns the
// pipeline's estimate of its stages and links (runtime.RoundStats.Times),
// measured at micro-batch size mbs on a model cut at cuts, into the
// partitioner's and the simulator's units. rates[s] is stage s's device's
// compute rate in FLOP/s: its segment's forward and backward FLOPs for one
// micro-batch over the smoothed Tf+Tb. bandwidths[s] is link s's, between
// stages s and s+1, in bytes/s: one micro-batch's activation and gradient
// bytes over the smoothed one-way times, +Inf for a link nothing measured
// (Eq. 3 counts it free). It fails when a stage has no compute time or no
// FLOPs.
func Measured(spec *model.Spec, cuts []int, mbs int, times []pipeline.StageTimes) (rates, bandwidths []float64, err error) {
	if len(times) != len(cuts)+1 || mbs <= 0 {
		return nil, nil, fmt.Errorf("partition: an estimate of %d stages over cuts %v at micro-batch size %d", len(times), cuts, mbs)
	}
	b := append(append([]int{0}, cuts...), spec.NumLayers())
	per := float64(mbs)
	for s, t := range times {
		r := spec.SegmentFwdFLOPs(b[s], b[s+1]) * (1 + model.BackwardFactor) * per / t.Compute()
		if !(r > 0) || math.IsInf(r, 1) {
			return nil, nil, fmt.Errorf("partition: stage %d has no measured compute time or no FLOPs", s)
		}
		rates = append(rates, r)
		if s < len(cuts) {
			bytes := (spec.CutActivationBytes(b[s+1]) + spec.CutGradientBytes(b[s+1])) * per
			bandwidths = append(bandwidths, bytes/(t.CommF+t.CommB))
		}
	}
	return rates, bandwidths, nil
}

// DynamicProgramming computes the Eq. 1 partition of spec across devices in
// the given order: A(0→j, D_n) = min over cuts s of max{A(0→s, D_{n−1}),
// (a_s+g_s)/B_{n−2}, T(s+1→j, n−1)}. Every device receives at least one
// layer. Rates are taken at asymptotically large micro-batches; use
// DynamicProgrammingBatch when the micro-batch size is already known.
func DynamicProgramming(spec *model.Spec, devs []*device.Device) (*Plan, error) {
	return DynamicProgrammingBatch(spec, devs, 0)
}

// DynamicProgrammingBatch is DynamicProgramming with device rates evaluated
// at the given micro-batch size, so profiling matches execution (§4.2's
// profiling phase measures T_l at the deployed micro-batch size). A link
// runs at the slower LinkBandwidth of its two devices.
func DynamicProgrammingBatch(spec *model.Spec, devs []*device.Device, mbs int) (*Plan, error) {
	if len(devs) == 0 {
		return nil, errors.New("partition: no devices")
	}
	bw := make([]float64, len(devs)-1)
	for n := range bw {
		bw[n] = linkBandwidth(devs[n], devs[n+1])
	}
	return DynamicProgrammingLinks(spec, devs, mbs, bw)
}

// DynamicProgrammingLinks is DynamicProgrammingBatch with the bandwidth of
// the link between devs[n] and devs[n+1] given as bw[n], in bytes/s (+Inf for
// a link that costs nothing): the re-plan of a running pipeline passes the
// bandwidths it measured on its links.
func DynamicProgrammingLinks(spec *model.Spec, devs []*device.Device, mbs int, bw []float64) (*Plan, error) {
	L := spec.NumLayers()
	N := len(devs)
	if N == 0 || len(bw) != N-1 {
		return nil, fmt.Errorf("partition: %d devices and %d link bandwidths", N, len(bw))
	}
	if N > L {
		return nil, fmt.Errorf("partition: %d devices but only %d layers", N, L)
	}
	const inf = math.MaxFloat64
	// a[n][j]: optimal lagger covering the first j layers with the first
	// n devices (1-based n, j). cut[n][j]: chosen split point.
	a := make([][]float64, N+1)
	cut := make([][]int, N+1)
	for n := 0; n <= N; n++ {
		a[n] = make([]float64, L+1)
		cut[n] = make([]int, L+1)
		for j := range a[n] {
			a[n][j] = inf
		}
	}
	for j := 1; j <= L; j++ {
		a[1][j] = stageTime(spec, devs[0], 0, j, mbs)
	}
	for n := 2; n <= N; n++ {
		for j := n; j <= L; j++ {
			best, bestCut := inf, -1
			for s := n - 1; s < j; s++ {
				if a[n-1][s] == inf {
					continue
				}
				comm := (spec.CutActivationBytes(s) + spec.CutGradientBytes(s)) / bw[n-2]
				v := math.Max(a[n-1][s], math.Max(comm, stageTime(spec, devs[n-1], s, j, mbs)))
				if v < best {
					best, bestCut = v, s
				}
			}
			a[n][j] = best
			cut[n][j] = bestCut
		}
	}
	if a[N][L] == math.MaxFloat64 {
		return nil, errors.New("partition: no feasible partition")
	}
	// Backtrack cut points.
	bounds := make([]int, N+1)
	bounds[N] = L
	for n := N; n >= 2; n-- {
		bounds[n-1] = cut[n][bounds[n]]
	}
	plan := &Plan{LaggerTime: a[N][L]}
	for n := 0; n < N; n++ {
		plan.Stages = append(plan.Stages, pipeline.Stage{Device: devs[n], From: bounds[n], To: bounds[n+1]})
	}
	return plan, nil
}

// PipeDreamUniform is the Fig. 12 baseline: PipeDream's partitioner assumes
// homogeneous workers, so it balances raw per-stage workload (FLOPs) without
// regard for device speed. Implemented as the same dynamic program with all
// device rates pinned to a common value.
func PipeDreamUniform(spec *model.Spec, devs []*device.Device) (*Plan, error) {
	uniform := make([]*device.Device, len(devs))
	for i, d := range devs {
		u := d.Clone()
		u.ComputeRate = 1e9 // identical rate for partitioning purposes
		u.LoadFactor = 1
		uniform[i] = u
	}
	plan, err := DynamicProgramming(spec, uniform)
	if err != nil {
		return nil, err
	}
	// Re-attach the real devices to the uniform cuts.
	for i := range plan.Stages {
		plan.Stages[i].Device = devs[i]
	}
	// Recompute the true lagger on real hardware.
	plan.LaggerTime = 0
	for i, st := range plan.Stages {
		t := stageTime(spec, devs[i], st.From, st.To, 0)
		if t > plan.LaggerTime {
			plan.LaggerTime = t
		}
	}
	return plan, nil
}

// ---------------------------------------------------------------- Orchestration

// Options steers the pipeline orchestration search of §4.3.
type Options struct {
	// MicroBatchSizes to try, largest first. Defaults to {32,16,8,4,2,1}.
	MicroBatchSizes []int
	// NumMicroBatches is M per sync-round. Defaults to 2× stage count.
	NumMicroBatches int
	Strategy        pipeline.Strategy
	// FixedOrder skips the device-order permutation search.
	FixedOrder bool
}

// Orchestration is a fully resolved pipeline configuration: device order,
// partition, micro-batch size, and its predicted schedule.
type Orchestration struct {
	Order          []*device.Device
	Plan           *Plan
	Config         *pipeline.Config
	Result         *pipeline.Result
	MicroBatchSize int
	// SatisfiesP reports whether every stage accommodates its optimal
	// residency (K_s = P_s), i.e. the schedule is DDB-free.
	SatisfiesP bool
}

// Orchestrate searches device orders and micro-batch sizes per §4.3:
// starting from the largest micro-batch size, it looks for an order whose
// partition lets every stage hold P_s forward tasks (no DDB); if no order
// qualifies it reduces the micro-batch size; if none ever qualifies it
// returns the highest-throughput configuration found.
func Orchestrate(spec *model.Spec, devs []*device.Device, opts Options) (*Orchestration, error) {
	if len(devs) == 0 {
		return nil, errors.New("partition: no devices")
	}
	sizes := opts.MicroBatchSizes
	if len(sizes) == 0 {
		sizes = []int{32, 16, 8, 4, 2, 1}
	}
	m := opts.NumMicroBatches
	if m <= 0 {
		m = 2 * len(devs)
	}
	orders := [][]*device.Device{devs}
	if !opts.FixedOrder {
		orders = permutations(devs)
	}

	var fallback *Orchestration
	for _, mbs := range sizes {
		var bestSat *Orchestration
		for _, order := range orders {
			o := evaluate(spec, order, mbs, m, opts.Strategy)
			if o == nil {
				continue
			}
			if fallback == nil || o.Result.Throughput > fallback.Result.Throughput {
				fallback = o
			}
			if o.SatisfiesP && (bestSat == nil || o.Result.Throughput > bestSat.Result.Throughput) {
				bestSat = o
			}
		}
		if bestSat != nil {
			return bestSat, nil
		}
	}
	if fallback == nil {
		return nil, fmt.Errorf("partition: no feasible configuration for %s on %d devices", spec.Name, len(devs))
	}
	return fallback, nil
}

func evaluate(spec *model.Spec, order []*device.Device, mbs, m int, strategy pipeline.Strategy) *Orchestration {
	plan, err := DynamicProgrammingBatch(spec, order, mbs)
	if err != nil {
		return nil
	}
	cfg := &pipeline.Config{
		Spec:            spec,
		Stages:          plan.Stages,
		MicroBatchSize:  mbs,
		NumMicroBatches: m,
		Strategy:        strategy,
	}
	res, err := pipeline.Schedule(cfg)
	if err != nil {
		return nil
	}
	sat := true
	for s := range res.Ks {
		if res.Ks[s] < res.Ps[s] && res.Ks[s] < m {
			sat = false
			break
		}
	}
	return &Orchestration{
		Order:          order,
		Plan:           plan,
		Config:         cfg,
		Result:         res,
		MicroBatchSize: mbs,
		SatisfiesP:     sat,
	}
}

// permutations returns all orderings of devs (Heap's algorithm).
func permutations(devs []*device.Device) [][]*device.Device {
	var out [][]*device.Device
	a := append([]*device.Device(nil), devs...)
	var gen func(k int)
	gen = func(k int) {
		if k == 1 {
			out = append(out, append([]*device.Device(nil), a...))
			return
		}
		for i := 0; i < k; i++ {
			gen(k - 1)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
	}
	gen(len(a))
	return out
}
