package runtime

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecofl/internal/metrics"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs"
	"ecofl/internal/tensor"
)

var (
	distRoundsTotal = metrics.GetCounter("ecofl_pipeline_dist_rounds_total",
		"1F1B-Sync sync-rounds executed over real network links")
	distAbortsTotal = metrics.GetCounter("ecofl_pipeline_dist_aborts_total",
		"sync-rounds aborted mid-flight (link fault or stage failure); no weights were committed")
)

// This file is the distributed flavour of the pipeline runtime: stage
// workers exchange activations and gradients as binary tensor frames (see
// link.go) over real net.Conn links (TCP between devices in a deployment;
// loopback or net.Pipe in tests). Each worker sees only its model segment
// and its two neighbour links — exactly the information a device in a
// smart-home pipeline has.
//
// Tensor ownership: a tensor a stage received from a link is that stage's
// alone. It comes from the tensor pool and goes back there after the
// Backward that consumed it — the received activation once its micro-batch's
// caches are spent, the received gradient once dx is computed — unless its
// storage is shared with something the stage passed on (see tensor.SharesStorage).
// Tensors the link did not allocate (stage 0's micro-batches, the loss
// gradient, every Forward/Backward result) are never recycled here.
//
// Failure semantics: weights only ever change at round boundaries (the
// single optimizer flush after all gradients accumulated). When any stage
// errors mid-round — a link fault, a dead peer, a hostile frame — the round
// aborts: every connection is force-closed so goroutines parked in recv or
// a blocked write unwind immediately, the partial gradients are discarded
// (the next round's ZeroGrads wipes them), and TrainSyncRound returns a
// *RoundError without stepping the optimizer. A caller can therefore retry
// the same mini-batch — on fresh links, or on a re-partitioned pipeline —
// and obtain a model bit-identical to a fault-free run (the healing
// executor in internal/adaptive/executor does exactly this).

// DistPipeline trains a partitioned model with 1F1B-Sync over real network
// links. It is behaviourally identical to Pipeline (gradient-equivalent to
// sequential training) but every inter-stage tensor crosses a net.Conn.
type DistPipeline struct {
	inner *Pipeline
	dial  Dialer
	opts  LinkOptions
	rng   *rand.Rand // jitter stream for link dial backoff

	// delays holds per-stage injected compute delay in nanoseconds — the
	// in-process stand-in for an external workload stealing the device
	// (§4.4 load spikes). The sleep lands inside the measured compute time,
	// so monitors observe the slowdown exactly as they would on hardware.
	delays []atomic.Int64

	// lastStats holds per-stage measurements of the most recent sync-round.
	mu        sync.Mutex
	lastStats *RoundStats
}

// RoundStats are wall-clock measurements of one executed sync-round — the
// prototype-side counterpart of the simulator's schedule metrics, used to
// cross-validate the two (see TestSimulatorMatchesPrototype).
type RoundStats struct {
	// WallTime is the end-to-end round duration. For an aborted round this
	// is the detection latency: fault occurrence to full unwind.
	WallTime time.Duration
	// ComputeTime is each stage's time spent inside Forward/Backward
	// (including any injected external-load delay).
	ComputeTime []time.Duration
	// Aborted reports whether the round failed mid-flight; no weights were
	// committed if so.
	Aborted bool
}

// StageUtilization returns each stage's measured busy fraction.
func (r *RoundStats) StageUtilization() []float64 {
	out := make([]float64, len(r.ComputeTime))
	for i, c := range r.ComputeTime {
		out[i] = float64(c) / float64(r.WallTime)
	}
	return out
}

// RoundError reports a sync-round that aborted mid-flight. The model was
// not updated: weights remain exactly as they were at the last round
// boundary, so the round can be retried (possibly on a new partition).
type RoundError struct {
	// Stages lists the pipeline stages that reported errors, ascending. The
	// first entry is usually the stage adjacent to the fault; stages
	// unwound by the abort broadcast follow.
	Stages []int
	Errs   []error
}

func (e *RoundError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime: sync-round aborted (%d stages failed):", len(e.Stages))
	for i, s := range e.Stages {
		fmt.Fprintf(&b, " stage %d: %v;", s, e.Errs[i])
	}
	return strings.TrimSuffix(b.String(), ";")
}

// Unwrap exposes the first stage error for errors.Is/As chains.
func (e *RoundError) Unwrap() error { return e.Errs[0] }

// LastRoundStats returns measurements of the most recent TrainSyncRound
// (nil before the first round).
func (d *DistPipeline) LastRoundStats() *RoundStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastStats
}

// NewDistributed builds a distributed pipeline from cut points and a link
// dialer.
func NewDistributed(tr *model.Trainable, cuts []int, dial Dialer) (*DistPipeline, error) {
	p, err := New(tr, cuts)
	if err != nil {
		return nil, err
	}
	if dial == nil {
		dial = PipeLinks()
	}
	return &DistPipeline{
		inner:  p,
		dial:   dial,
		rng:    rand.New(rand.NewSource(int64(len(cuts)) + 1)),
		delays: make([]atomic.Int64, p.NumStages()),
	}, nil
}

// SetLinkOptions installs the link fault-tolerance options (deadlines,
// heartbeats, dial retries) used by subsequent rounds. The zero value is
// the default: no deadlines, no heartbeats, frame validation only.
func (d *DistPipeline) SetLinkOptions(opts LinkOptions) {
	d.opts = opts
	if opts.JitterSeed != 0 {
		d.rng = rand.New(rand.NewSource(opts.JitterSeed))
	}
}

// SetStageDelay injects an artificial per-op compute delay into stage s —
// an emulated external workload consuming the device. Measured stage times
// include the delay, so deviation monitors react to it exactly as to a real
// load spike. A zero duration clears the delay. Safe to call mid-round.
func (d *DistPipeline) SetStageDelay(s int, delay time.Duration) {
	if s >= 0 && s < len(d.delays) {
		d.delays[s].Store(int64(delay))
	}
}

// stageDelay returns stage s's current injected delay.
func (d *DistPipeline) stageDelay(s int) time.Duration {
	if s < 0 || s >= len(d.delays) {
		return 0
	}
	return time.Duration(d.delays[s].Load())
}

// SetTrace attaches a span recorder to the stage workers: subsequent rounds
// record per-micro-batch fwd/bwd spans and network-wait spans per stage.
func (d *DistPipeline) SetTrace(tr *obs.Trace) { d.inner.SetTrace(tr) }

// Network returns the underlying full network (shared parameters).
func (d *DistPipeline) Network() *nn.Network { return d.inner.Network() }

// NumStages returns the stage count.
func (d *DistPipeline) NumStages() int { return d.inner.NumStages() }

// Boundaries returns the block boundaries of the current partition
// (len = NumStages+1): stage s runs blocks [b[s], b[s+1]).
func (d *DistPipeline) Boundaries() []int { return d.inner.Boundaries() }

// TrainSyncRound runs one 1F1B-Sync sync-round with inter-stage traffic on
// real connections, applies the flush update, and returns the mean loss.
// On a mid-round fault it aborts cleanly — all stage goroutines and link
// writers unwind, no weights are committed — and returns a *RoundError.
func (d *DistPipeline) TrainSyncRound(x *tensor.Tensor, labels []int, mbs int, opt *nn.SGD) (float64, error) {
	if mbs <= 0 {
		return 0, fmt.Errorf("runtime: micro-batch size must be positive")
	}
	rows := x.Rows()
	if rows != len(labels) || rows == 0 {
		return 0, fmt.Errorf("runtime: %d rows vs %d labels", rows, len(labels))
	}
	S := d.inner.NumStages()
	micros, microLabels := splitMicroBatches(x, labels, mbs)
	m := len(micros)

	// Establish links (retrying transient dial failures under backoff). Every
	// connection is dialed before any link is built, so a failed dial has no
	// writer goroutine or heartbeat ticker to unwind.
	var conns []net.Conn
	for i := 0; i < S-1; i++ {
		up, down, err := dialLink(d.dial, i, d.opts, d.rng)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return 0, err
		}
		conns = append(conns, up, down)
	}
	ups := make([]*link, S)   // ups[s]: stage s's link to stage s+1
	downs := make([]*link, S) // downs[s]: stage s's link to stage s−1
	for i := 0; i < S-1; i++ {
		ups[i] = newLink(conns[2*i], m, d.opts)
		downs[i+1] = newLink(conns[2*i+1], m, d.opts)
	}

	// abort force-closes every connection: goroutines parked in a blocking
	// recv or a stuck write unwind with an error instead of leaking. Invoked
	// by the first stage that fails; idempotent.
	var abortOnce sync.Once
	aborted := false
	abort := func() {
		abortOnce.Do(func() {
			aborted = true
			distAbortsTotal.Inc()
			for _, c := range conns {
				c.Close()
			}
		})
	}
	defer func() {
		for i := 0; i < S-1; i++ {
			ups[i].close()
			downs[i+1].close()
		}
		for _, c := range conns {
			c.Close()
		}
	}()

	d.Network().ZeroGrads()
	losses := make([]float64, m)
	errs := make([]error, S)
	stats := &RoundStats{ComputeTime: make([]time.Duration, S)}
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = d.runStage(s, S, m, micros, microLabels, rows, losses, downs[s], ups[s], &stats.ComputeTime[s])
			if errs[s] != nil {
				abort()
			}
		}(s)
	}
	wg.Wait()
	stats.WallTime = time.Since(start)
	stats.Aborted = aborted
	distRoundsTotal.Inc()
	d.mu.Lock()
	d.lastStats = stats
	d.mu.Unlock()
	if aborted {
		re := &RoundError{}
		for s, err := range errs {
			if err != nil {
				re.Stages = append(re.Stages, s)
				re.Errs = append(re.Errs, err)
			}
		}
		return 0, re
	}
	samplesTotal.Add(int64(rows))
	opt.Step(d.Network().Params())
	var loss float64
	for i, l := range losses {
		loss += l * float64(len(microLabels[i]))
	}
	return loss / float64(rows), nil
}

// runStage executes segment s's 1F1B order, exchanging tensors with its
// neighbours over down (to stage s−1) and up (to stage s+1).
func (d *DistPipeline) runStage(s, S, m int, micros []*tensor.Tensor, microLabels [][]int,
	totalRows int, losses []float64, down, up *link, busy *time.Duration) error {
	seg := d.inner.segments[s]
	sm := d.inner.sm[s]
	tr := d.inner.trace
	caches := make([][]nn.Cache, m)
	outputs := make([]*tensor.Tensor, m)
	// acts[i] is the received activation of micro-batch i while this stage
	// may still recycle it (nil on stage 0, whose inputs are the caller's).
	acts := make([]*tensor.Tensor, m)
	for _, o := range order1F1B(m, S-s) {
		if o.forward {
			var in *tensor.Tensor
			if s == 0 {
				in = micros[o.micro]
			} else {
				wait := tr.Begin(0, s, "wait-act", "net")
				t0 := time.Now()
				micro, t, err := down.recv()
				sm.stallNanos.Add(time.Since(t0).Nanoseconds())
				wait.End()
				if err != nil {
					return fmt.Errorf("stage %d recv act: %w", s, err)
				}
				if micro != o.micro {
					return fmt.Errorf("stage %d: activation %d arrived, expected %d", s, micro, o.micro)
				}
				in = t
			}
			sp := tr.Begin(0, s, "fwd", "compute")
			t0 := time.Now()
			out, c := seg.Forward(in)
			if dl := d.stageDelay(s); dl > 0 {
				time.Sleep(dl)
			}
			el := time.Since(t0)
			*busy += el
			sm.busyNanos.Add(el.Nanoseconds())
			sm.fwd.Inc()
			sp.EndMicro(o.micro)
			caches[o.micro] = c
			if s > 0 && !tensor.SharesStorage(in, out) {
				acts[o.micro] = in
			}
			if s == S-1 {
				outputs[o.micro] = out
			} else if err := up.send(o.micro, out); err != nil {
				return fmt.Errorf("stage %d send act: %w", s, err)
			}
		} else {
			var dy *tensor.Tensor
			if s == S-1 {
				var loss float64
				loss, dy = nn.SoftmaxCrossEntropy(outputs[o.micro], microLabels[o.micro])
				losses[o.micro] = loss
				dy.Scale(float64(outputs[o.micro].Rows()) / float64(totalRows))
			} else {
				wait := tr.Begin(0, s, "wait-grad", "net")
				t0 := time.Now()
				micro, t, err := up.recv()
				sm.stallNanos.Add(time.Since(t0).Nanoseconds())
				wait.End()
				if err != nil {
					return fmt.Errorf("stage %d recv grad: %w", s, err)
				}
				if micro != o.micro {
					return fmt.Errorf("stage %d: gradient %d arrived, expected %d", s, micro, o.micro)
				}
				dy = t
			}
			sp := tr.Begin(0, s, "bwd", "compute")
			t0 := time.Now()
			dx := seg.Backward(caches[o.micro], dy)
			if dl := d.stageDelay(s); dl > 0 {
				time.Sleep(dl)
			}
			el := time.Since(t0)
			*busy += el
			sm.busyNanos.Add(el.Nanoseconds())
			sm.bwd.Inc()
			sp.EndMicro(o.micro)
			caches[o.micro] = nil
			if s > 0 {
				if err := down.send(o.micro, dx); err != nil {
					return fmt.Errorf("stage %d send grad: %w", s, err)
				}
			}
			// The caches are spent and dx is computed: what this stage
			// received for the micro-batch is dead unless dx is a view of it.
			if in := acts[o.micro]; in != nil && !tensor.SharesStorage(in, dx) {
				tensor.PutBuf(in)
			}
			if s < S-1 && !tensor.SharesStorage(dy, dx) {
				tensor.PutBuf(dy)
			}
		}
	}
	return nil
}
