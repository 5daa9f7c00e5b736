package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs/journal"
	"ecofl/internal/pipeline"
	"ecofl/internal/tensor"
)

// This file is the pipeline executor: stage workers exchange activations and
// gradients as binary tensor frames (see link.go) over net.Conn links (TCP
// between devices in a deployment; net.Pipe in process). Each worker sees
// only its model segment and its two neighbour links — exactly the
// information a device in a smart-home pipeline has.
//
// Tensor ownership. 1F1B keeps at most S−s micro-batches in flight on stage
// s, and a stage hands what the schedule frees straight to the next
// micro-batch: every tensor of a warm round comes out of the tensor pool and
// goes back into it, by one rule, nn.Pass.release, applied to one record per
// micro-batch in flight. Who returns what:
//
//	received activation      the record, after the micro-batch's Backward
//	                         (it owns its input on stages > 0)
//	stage 0's micro-batch    nobody: a view of the caller's x
//	layer outputs, caches    the record, as Backward consumes them
//	segment output           the record, after Backward — which the stage
//	                         starts only once the writer has serialized it
//	received gradient,       the record, once the next gradient down is
//	gradients in between     computed
//	loss gradient            the record (it is the last stage's incoming dy)
//	dx, stage 0              the stage, at once
//	dx, stages > 0           the down link's writer, once it is framed (give)
//
// Storage shared between tensors (a Flatten or eval-mode Dropout at a stage
// edge makes the output a view of the input, dx a view of dy) goes back
// once, by the last of the chain to die; that is the record's business too.
//
// The one reader the record cannot see is the send queue: the segment output
// is lent to the up link (and behind a view layer the received activation
// shares its storage). Backward for micro-batch i is therefore gated on the
// writer having serialized activation i (link.sent). A correct peer cannot
// produce gradient i before it has read activation i, so the gate never
// waits — it is a check: a gradient that arrives early is a protocol
// violation and aborts the round.
//
// An aborted round returns nothing more to the pool: a failing stage drops
// its records where they stand, a failed link's writer drops what is queued,
// and the garbage collector takes them. Between rounds the pipeline keeps
// slice headers only — records, op orders, the loss slice; the tensors
// themselves wait in the pool, which the GC trims when training stops.
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

// DistPipeline trains a partitioned model with 1F1B-Sync, every inter-stage
// tensor crossing a net.Conn. A round is gradient-equivalent to sequential
// training of the whole mini-batch.
type DistPipeline struct {
	segments []*nn.Network // stage s's blocks, sharing parameters with net
	sm       []stageMetrics
	journal  *journal.Recorder
	// net is the full network over the stages' shared parameters, resolved
	// once: ZeroGrads and the flush walk its cached parameter list.
	net  *nn.Network
	dial Dialer
	opts LinkOptions
	rng  *rand.Rand // jitter stream for link dial backoff

	// delays holds per-stage injected compute delay in nanoseconds — the
	// in-process stand-in for an external workload stealing the device
	// (§4.4 load spikes). The sleep lands inside the measured compute time,
	// so monitors observe the slowdown exactly as they would on hardware.
	delays []atomic.Int64

	// Round scaffolding that survives a round, headers only (see above).
	stages []stageScratch
	losses []float64

	// lastStats holds per-stage measurements of the most recent sync-round.
	mu        sync.Mutex
	lastStats *RoundStats
}

// stageScratch is what one stage worker keeps from round to round.
type stageScratch struct {
	// ops is the stage's 1F1B order for len(ops)/2 micro-batches.
	ops []pipeline.Op
	// recs holds one forward record per micro-batch the schedule lets be in
	// flight here; micro-batch i uses recs[i%len(recs)], which 1F1B has
	// always freed by then (and ForwardPass panics if not).
	recs []nn.Pass
}

// prepare sizes the scratch of stage s of S for m micro-batches. The
// residency is S−s: pipeline.ResidencyP's answer when links cost nothing.
func (st *stageScratch) prepare(s, S, m int) {
	if len(st.ops) != 2*m {
		st.ops = pipeline.Order(pipeline.OneFOneBSync, m, S-s)
	}
	if k := min(m, S-s); len(st.recs) != k {
		st.recs = make([]nn.Pass, k)
	}
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

// NewDistributed builds a pipeline from cut points — block indices where the
// model is split, strictly increasing within (0, numBlocks), len(cuts)+1
// stages — and a link dialer; a nil dialer means PipeLinks. A pipeline with
// no cuts is one stage and dials nothing.
func NewDistributed(tr *model.Trainable, cuts []int, dial Dialer) (*DistPipeline, error) {
	nb := len(tr.Blocks)
	b := append([]int{0}, cuts...)
	b = append(b, nb)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] || b[i] > nb {
			return nil, fmt.Errorf("runtime: invalid cuts %v for %d blocks", cuts, nb)
		}
	}
	if dial == nil {
		dial = PipeLinks()
	}
	S := len(b) - 1
	d := &DistPipeline{
		net:    tr.Network(),
		dial:   dial,
		rng:    rand.New(rand.NewSource(int64(len(cuts)) + 1)),
		delays: make([]atomic.Int64, S),
		stages: make([]stageScratch, S),
	}
	for s := 0; s < S; s++ { // stage s runs blocks [b[s], b[s+1])
		d.segments = append(d.segments, tr.SegmentNet(b[s], b[s+1]))
		d.sm = append(d.sm, newStageMetrics(s))
	}
	return d, nil
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

// SetTrace attaches a recorder to the stage workers: subsequent rounds record
// per-micro-batch pipe.fwd/pipe.bwd spans and pipe.wait-act/pipe.wait-grad
// link-wait spans, lane s for stage s. A nil recorder (the default) disables
// recording at ~0 cost.
func (d *DistPipeline) SetTrace(rec *journal.Recorder) {
	d.journal = rec
	for s := range d.segments {
		rec.SetName(s, fmt.Sprintf("stage %d", s))
	}
}

// Network returns the underlying full network (shared parameters).
func (d *DistPipeline) Network() *nn.Network { return d.net }

// NumStages returns the stage count.
func (d *DistPipeline) NumStages() int { return len(d.segments) }

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
	S := d.NumStages()
	r := &syncRound{rows: rows}
	r.micros, r.labels = splitMicroBatches(x, labels, mbs)
	m := len(r.micros)

	// Establish links (retrying transient dial failures under backoff). Every
	// connection is dialed before any link is built, so a failed dial has no
	// writer goroutine or heartbeat ticker to unwind.
	conns := make([]net.Conn, 0, 2*(S-1))
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
	r.ups = make([]*link, S)   // ups[s]: stage s's link to stage s+1
	r.downs = make([]*link, S) // downs[s]: stage s's link to stage s−1
	for i := 0; i < S-1; i++ {
		r.ups[i] = newLink(conns[2*i], m, d.opts)
		r.downs[i+1] = newLink(conns[2*i+1], m, d.opts)
	}

	// abort force-closes every connection: goroutines parked in a blocking
	// recv or a stuck write unwind with an error instead of leaking. Invoked
	// by the first stage that fails; idempotent.
	var abortOnce sync.Once
	aborted := false
	abort := func() {
		abortOnce.Do(func() {
			aborted = true
			abortsTotal.Inc()
			for _, c := range conns {
				c.Close()
			}
		})
	}
	defer func() {
		for i := 0; i < S-1; i++ {
			r.ups[i].close()
			r.downs[i+1].close()
		}
		for _, c := range conns {
			c.Close()
		}
	}()

	d.net.ZeroGrads()
	if cap(d.losses) < m {
		d.losses = make([]float64, m)
	}
	r.losses = d.losses[:m]
	errs := make([]error, S)
	stats := &RoundStats{ComputeTime: make([]time.Duration, S)}
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		d.stages[s].prepare(s, S, m)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if errs[s] = d.runStage(s, r, &stats.ComputeTime[s]); errs[s] != nil {
				abort()
			}
		}(s)
	}
	wg.Wait()
	stats.WallTime = time.Since(start)
	stats.Aborted = aborted
	d.mu.Lock()
	d.lastStats = stats
	d.mu.Unlock()
	if aborted {
		// The records of the micro-batches in flight still hold their
		// tensors; they go to the garbage collector with the scratch.
		d.stages = make([]stageScratch, S)
		re := &RoundError{}
		for s, err := range errs {
			if err != nil {
				re.Stages = append(re.Stages, s)
				re.Errs = append(re.Errs, err)
			}
		}
		return 0, re
	}
	roundsTotal.Inc()
	samplesTotal.Add(int64(rows))
	opt.Step(d.net)
	var loss float64
	for i, l := range r.losses {
		loss += l * float64(len(r.labels[i]))
	}
	return loss / float64(rows), nil
}

// syncRound is what the stage workers of one round share.
type syncRound struct {
	micros     []*tensor.Tensor // stage 0's inputs: views of the caller's batch
	labels     [][]int
	rows       int       // samples in the whole mini-batch
	losses     []float64 // per micro-batch, written by the last stage
	ups, downs []*link
}

// runStage executes segment s's 1F1B order, exchanging tensors with its
// neighbours over down (to stage s−1) and up (to stage s+1). The file comment
// says which tensor goes back to the pool where.
func (d *DistPipeline) runStage(s int, r *syncRound, busy *time.Duration) error {
	seg := d.segments[s]
	sm := d.sm[s]
	jr := d.journal
	st := &d.stages[s]
	down, up := r.downs[s], r.ups[s]
	first, last := s == 0, up == nil
	for _, o := range st.ops {
		rec := &st.recs[o.Micro%len(st.recs)]
		if o.Kind == pipeline.TaskForward {
			in := r.micros[o.Micro]
			if !first {
				wait := jr.Begin()
				t0 := time.Now()
				micro, t, err := down.recv()
				sm.stallNanos.Add(time.Since(t0).Nanoseconds())
				endStageSpan(wait, s, "pipe.wait-act", o.Micro)
				if err != nil {
					return fmt.Errorf("stage %d recv act: %w", s, err)
				}
				if micro != o.Micro {
					return fmt.Errorf("stage %d: activation %d arrived, expected %d", s, micro, o.Micro)
				}
				in = t
			}
			sp := jr.Begin()
			t0 := time.Now()
			out := seg.ForwardPass(rec, in, !first)
			if dl := d.stageDelay(s); dl > 0 {
				time.Sleep(dl)
			}
			el := time.Since(t0)
			*busy += el
			sm.busyNanos.Add(el.Nanoseconds())
			sm.fwd.Inc()
			endStageSpan(sp, s, "pipe.fwd", o.Micro)
			if !last {
				if err := up.send(o.Micro, out); err != nil {
					return fmt.Errorf("stage %d send act: %w", s, err)
				}
			}
		} else {
			var dy *tensor.Tensor
			if last {
				out := rec.Output()
				var loss float64
				loss, dy = nn.SoftmaxCrossEntropy(out, r.labels[o.Micro])
				r.losses[o.Micro] = loss
				dy.Scale(float64(out.Rows()) / float64(r.rows))
			} else {
				wait := jr.Begin()
				t0 := time.Now()
				micro, t, err := up.recv()
				sm.stallNanos.Add(time.Since(t0).Nanoseconds())
				endStageSpan(wait, s, "pipe.wait-grad", o.Micro)
				if err != nil {
					return fmt.Errorf("stage %d recv grad: %w", s, err)
				}
				if micro != o.Micro {
					return fmt.Errorf("stage %d: gradient %d arrived, expected %d", s, micro, o.Micro)
				}
				// Backward returns this micro-batch's segment output to the
				// pool; the up link must be done reading it. Activations are
				// all the up link carries, in micro-batch order.
				if !up.sent(o.Micro) {
					return fmt.Errorf("stage %d: %w: gradient %d arrived before activation %d was sent", s, errProtocol, micro, o.Micro)
				}
				dy = t
			}
			sp := jr.Begin()
			t0 := time.Now()
			dx := seg.BackwardPass(rec, dy, !first) // stage 0 has no one to send dx to
			if dl := d.stageDelay(s); dl > 0 {
				time.Sleep(dl)
			}
			el := time.Since(t0)
			*busy += el
			sm.busyNanos.Add(el.Nanoseconds())
			sm.bwd.Inc()
			endStageSpan(sp, s, "pipe.bwd", o.Micro)
			if !first {
				if err := down.give(o.Micro, dx); err != nil {
					return fmt.Errorf("stage %d send grad: %w", s, err)
				}
			}
		}
	}
	return nil
}

// endStageSpan records sp on stage s's lane, tagged with its micro-batch. The
// tag is formatted only for a live span, so the nop recorder stays
// allocation-free.
func endStageSpan(sp journal.Span, s int, kind string, micro int) {
	if sp != (journal.Span{}) {
		sp.End(s, kind, journal.None, journal.None, "micro", strconv.Itoa(micro))
	}
}

// errProtocol tags a frame that is well-formed but that a correct peer cannot
// have sent at this point of the 1F1B exchange.
var errProtocol = errors.New("runtime: pipeline protocol violation")
