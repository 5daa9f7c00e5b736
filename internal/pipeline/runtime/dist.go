package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	goruntime "runtime"
	"slices"
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
// gradients as wire tensor frames (see link.go) over net.Conn links (TCP
// between devices in a deployment; net.Pipe in process). Each worker sees
// only its model segment and its two neighbour links — exactly the
// information a device in a smart-home pipeline has.
//
// Expected shapes. A frame carries no shape: NewDistributed works out the
// per-sample shape each stage receives once, through the layers' geometry
// (nn.Layer.OutShape: nothing runs), every stage knows each micro-batch's
// rows, and a gradient must be shaped like the stage's own output. A frame of
// any other shape is refused from its header (link.recv) and aborts the
// round.
//
// Residency. Stage s keeps K_s micro-batches in flight: it runs K_s forwards
// before its first backward (pipeline.Order), and K_s = min(P_s, m), where
// P_s is Eq. 3 (pipeline.ResidencyP, the rule Schedule sizes its stages
// with) over the pipeline's one estimate of its stages and links, switched
// as a whole vector (estimate.go). Before anything was measured a pipeline
// runs P_s = S−s, Eq. 3's answer when links cost nothing, unless SetEstimate
// started it from another pipeline's estimate. Over real links a hop costs
// more than a stage's op, and S−s leaves every stage but the last waiting
// for gradients; P_s keeps as many forwards in flight as it takes to hide
// the round trip behind compute. The numbers cannot move with K: backward
// ops run in ascending micro-batch order under any K, so the gradients
// accumulate in the same order. Sends never block under any K ≤ m, since
// each link's queue holds a round's frames (link.start). And P_s falls
// strictly along the stages, so no stage waits for an activation its
// upstream holds back until a gradient comes.
//
// Tensor ownership. A stage hands what the schedule frees straight to the
// next micro-batch: every tensor of a warm round comes out of the tensor
// pool and goes back into it, by one rule, nn.Pass.release, applied to one
// record per micro-batch in flight. Who returns what:
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
// Storage shared between tensors (a Flatten at a stage edge makes the output
// a view of the input, dx a view of dy) goes back once, by the last of the
// chain to die; that is the record's business too.
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
// slice headers only — records, op orders, clocks, the micro-batch views
// with their data cleared, the loss slice — and its links; the tensors
// themselves wait in the pool, which the GC trims when training stops.
//
// Connections. The pipeline dials its S−1 connection pairs on its first
// round and holds them, link state and armed deadlines included, for every
// later round that ends clean; between rounds a link has no writer
// goroutine, no running ticker and no frame buffer (see link.go), so a
// pipeline nobody closes leaks nothing but its open connections. Three
// things force a re-dial: an aborted round, a link whose write failed
// (a keepalive cut off mid-frame leaves half a frame in the peer's stream),
// and Close; each closes every held connection, and the next round dials
// afresh through the Dialer — so fault injectors wrapping it (ChaosLinks,
// the executor's kill switch) see every new connection. A held connection
// that dies while idle — its peer gone, its endpoint closed by a kill
// switch — fails the next round like any link fault.
//
// Failure semantics: weights only ever change at round boundaries (the
// single optimizer flush after all gradients accumulated). When any stage
// errors mid-round — a link fault, a dead peer, a hostile frame — the round
// aborts: every connection is force-closed so goroutines parked in recv or
// a blocked write unwind immediately, the partial gradients are discarded
// (the next round's ZeroGrads wipes them), and TrainSyncRound returns a
// *RoundError without stepping the optimizer. A caller can therefore retry
// the same mini-batch — on fresh links, which the retry dials, or on a
// re-partitioned pipeline — and obtain a model bit-identical to a
// fault-free run (the healing executor in internal/adaptive/executor does
// exactly this).

// DistPipeline trains a partitioned model with 1F1B-Sync, every inter-stage
// tensor crossing a net.Conn. A round is gradient-equivalent to sequential
// training of the whole mini-batch.
type DistPipeline struct {
	segments []*nn.Network // stage s's blocks, sharing parameters with net
	// in[s] is the activation stage s > 0 receives; the stage writes each
	// micro-batch's rows into in[s][0] before it reads one.
	in      [][]int
	sm      []stageMetrics
	journal *journal.Recorder
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
	round  syncRound
	errs   []error
	// clocks[s] is stage s's timestamps of the round, one per micro-batch.
	clocks [][]microClock

	// est is the stage and link estimate residency is sized from (see
	// above).
	est estimate

	// The held links: ups[s] is stage s's link to stage s+1, downs[s] its
	// link to stage s−1. Nil from construction, and after a round that
	// forced a re-dial, until the next round dials them.
	ups, downs []*link

	// lastStats holds per-stage measurements of the most recent sync-round.
	mu        sync.Mutex
	lastStats *RoundStats
}

// stageScratch is what one stage worker keeps from round to round.
type stageScratch struct {
	// ops is the stage's 1F1B order for len(ops)/2 micro-batches and
	// len(recs) of them in flight.
	ops []pipeline.Op
	// recs holds one forward record per micro-batch the schedule lets be in
	// flight here; micro-batch i uses recs[i%len(recs)], which 1F1B has
	// always freed by then (and ForwardPass panics if not).
	recs []nn.Pass
}

// prepare sizes the scratch for m micro-batches, k of them in flight. A
// clean round leaves every record released, so records are reused whatever
// k was before.
func (st *stageScratch) prepare(m, k int) {
	if len(st.ops) != 2*m || len(st.recs) != k {
		st.ops = pipeline.Order(st.ops, pipeline.OneFOneBSync, m, k)
	}
	if cap(st.recs) < k {
		st.recs = make([]nn.Pass, k)
	}
	st.recs = st.recs[:k]
}

// microClock is one stage's timestamps for one micro-batch of a round, as
// offsets from the round's start on the monotonic clock.
type microClock struct {
	fwd, bwd time.Duration // the forward and the backward pass's compute time
	// actSent and gradSent are when the stage queued the micro-batch's
	// activation on its up link and its gradient on its down link.
	actSent, gradSent time.Duration
	// actWait and actGot bracket the stage's recv of the activation,
	// gradWait and gradGot its recv of the gradient.
	actWait, actGot, gradWait, gradGot time.Duration
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
	// Residency is each stage's K_s this round: the micro-batches it let be
	// in flight, min(P_s, m) with P_s sized from the estimate (S−s before
	// one).
	Residency []int
	// Times is the pipeline's estimate after this round, per micro-batch:
	// each term the EMA of the clean rounds' measurements, zero until one
	// measured it. The next round's residency is sized from it; an aborted
	// round leaves it as it was.
	Times []pipeline.StageTimes
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
// no cuts is one stage and dials nothing. The model must declare its
// per-sample input shape. The stages share the box: each one's kernels fan
// out to at most max(1, GOMAXPROCS ÷ S) cores (tensor.Split), as a stage on a
// device of its own would compute on that device's cores alone.
func NewDistributed(tr *model.Trainable, cuts []int, dial Dialer) (*DistPipeline, error) {
	if len(tr.InputShape) == 0 {
		return nil, errors.New("runtime: the model declares no input shape")
	}
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
		errs:   make([]error, S),
		clocks: make([][]microClock, S),
		ups:    make([]*link, S),
		downs:  make([]*link, S),
		est:    newEstimate(S),
	}
	sample := tr.InputShape
	_, width := tensor.Split(goruntime.GOMAXPROCS(0), S)
	for s := 0; s < S; s++ { // stage s runs blocks [b[s], b[s+1])
		seg := tr.SegmentNet(b[s], b[s+1])
		seg.Width = width
		d.segments = append(d.segments, seg)
		d.in = append(d.in, append([]int{0}, sample...))
		sample = seg.OutShape(sample)
		d.sm = append(d.sm, newStageMetrics(s))
	}
	return d, nil
}

// SetLinkOptions installs the link fault-tolerance options (deadlines,
// heartbeats, dial retries) used by subsequent rounds. The zero value is
// the default: no deadlines, no heartbeats, frame validation only. Held
// links were set up under the old options; they are closed, and the next
// round dials afresh.
func (d *DistPipeline) SetLinkOptions(opts LinkOptions) {
	d.Close()
	d.opts = opts
	if opts.JitterSeed != 0 {
		d.rng = rand.New(rand.NewSource(opts.JitterSeed))
	}
}

// SetEstimate starts the pipeline's estimate from times, one entry per
// stage (see RoundStats.Times), in place of what it has measured, and sizes
// the residency from it at once: a pipeline rebuilt on a new layout starts
// from what the old one measured instead of from S−s. A term that is not
// finite and positive is left unmeasured.
func (d *DistPipeline) SetEstimate(times []pipeline.StageTimes) {
	clear(d.est.times)
	d.est.p, d.est.behind = nil, 0
	d.est.fold(times)
	d.est.size(0)
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
	r := &d.round
	r.split(x, labels, mbs)
	defer r.end()
	m := len(r.micros)

	if S > 1 && d.ups[0] == nil {
		if err := d.dialLinks(m); err != nil {
			return 0, err
		}
	} else {
		for s := 0; s < S-1; s++ {
			d.ups[s].start(m)
			d.downs[s+1].start(m)
		}
	}
	defer func() {
		reuse := !r.aborted
		for s := 0; s < S-1; s++ {
			d.ups[s].close()
			d.downs[s+1].close()
			reuse = reuse && d.ups[s].sendErr() == nil && d.downs[s+1].sendErr() == nil
		}
		if !reuse {
			d.Close()
		}
	}()

	d.net.ZeroGrads()
	clear(d.errs)
	r.aborted, r.abortOnce = false, sync.Once{}
	stats := &RoundStats{ComputeTime: make([]time.Duration, S), Residency: make([]int, S)}
	for s := range S {
		k := S - s // P_s = S−s until the estimate has sized it
		if d.est.p != nil {
			k = d.est.p[s]
		}
		k = min(k, m)
		stats.Residency[s] = k
		d.sm[s].residency.Set(float64(k))
		d.stages[s].prepare(m, k)
		if cap(d.clocks[s]) < m {
			d.clocks[s] = make([]microClock, m)
		}
		d.clocks[s] = d.clocks[s][:m]
	}
	r.start = time.Now()
	for s := range S {
		r.wg.Add(1)
		go d.stageWorker(s, &stats.ComputeTime[s])
	}
	r.wg.Wait()
	stats.WallTime = time.Since(r.start)
	stats.Aborted = r.aborted
	if !r.aborted {
		d.est.observe(d.clocks, m)
	}
	stats.Times = slices.Clone(d.est.times)
	d.mu.Lock()
	d.lastStats = stats
	d.mu.Unlock()
	if r.aborted {
		// The records of the micro-batches in flight still hold their
		// tensors; they go to the garbage collector with the scratch.
		d.stages = make([]stageScratch, S)
		re := &RoundError{}
		for s, err := range d.errs {
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

// stageWorker runs stage s for the round; the first stage to fail aborts
// it.
func (d *DistPipeline) stageWorker(s int, busy *time.Duration) {
	defer d.round.wg.Done()
	if d.errs[s] = d.runStage(s, &d.round, busy); d.errs[s] != nil {
		d.abort()
	}
}

// abort force-closes every connection: goroutines parked in a blocking recv
// or a stuck write unwind with an error instead of leaking. Idempotent
// within a round.
func (d *DistPipeline) abort() {
	d.round.abortOnce.Do(func() {
		d.round.aborted = true
		abortsTotal.Inc()
		for s := range d.NumStages() - 1 {
			d.ups[s].conn.Close()
			d.downs[s+1].conn.Close()
		}
	})
}

// dialLinks dials the S−1 connection pairs (retrying transient failures
// under backoff) and starts their links' first round of m micro-batches.
// Every connection is dialed before any link is built, so a failed dial has
// no writer goroutine or heartbeat ticker to unwind.
func (d *DistPipeline) dialLinks(m int) error {
	S := d.NumStages()
	conns := make([]net.Conn, 0, 2*(S-1))
	for i := 0; i < S-1; i++ {
		up, down, err := dialLink(d.dial, i, d.opts, d.rng)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return err
		}
		conns = append(conns, up, down)
	}
	for i := 0; i < S-1; i++ {
		d.ups[i] = newLink(conns[2*i], m, d.opts)
		d.downs[i+1] = newLink(conns[2*i+1], m, d.opts)
	}
	return nil
}

// Close closes the connections the pipeline holds between rounds; a later
// round dials afresh. Closing a pipeline that holds none, or closing twice,
// does nothing. Close must not run concurrently with TrainSyncRound.
func (d *DistPipeline) Close() {
	for _, l := range d.ups {
		if l != nil {
			l.conn.Close()
		}
	}
	for _, l := range d.downs {
		if l != nil {
			l.conn.Close()
		}
	}
	clear(d.ups)
	clear(d.downs)
}

// syncRound is what the stage workers of one round share. The pipeline
// keeps it from round to round, and end drops what it holds of the caller's
// batch.
type syncRound struct {
	micros []*tensor.Tensor // stage 0's inputs: views of the caller's batch
	labels [][]int
	rows   int       // samples in the whole mini-batch
	losses []float64 // per micro-batch, written by the last stage
	// start is the round's start; the stages' clocks are offsets from it.
	start time.Time
	// wg waits for the stage workers; the first to fail aborts the round.
	wg        sync.WaitGroup
	abortOnce sync.Once
	aborted   bool
	// views and shapes are the storage of micros.
	views  []tensor.Tensor
	shapes []int
}

// split slices a mini-batch into micro-batches of mbs samples, preserving
// the per-sample tensor shape (e.g. NCHW for CNNs), over r's storage, grown
// as needed. Nothing is copied: each micro-batch is a view of its rows of x,
// so it must be treated like x itself — read, never written, never returned
// to the tensor pool.
func (r *syncRound) split(x *tensor.Tensor, labels []int, mbs int) {
	rows, dims := x.Rows(), len(x.Shape)
	sampleLen := x.Cols()
	m := (rows + mbs - 1) / mbs
	r.rows = rows
	if cap(r.views) < m {
		r.views = make([]tensor.Tensor, m)
		r.micros = make([]*tensor.Tensor, m)
		r.labels = make([][]int, m)
		r.losses = make([]float64, m)
	}
	if cap(r.shapes) < m*dims {
		r.shapes = make([]int, m*dims)
	}
	r.views, r.micros, r.labels, r.losses = r.views[:m], r.micros[:m], r.labels[:m], r.losses[:m]
	for i := range r.micros {
		start := i * mbs
		end := min(start+mbs, rows)
		shape := r.shapes[i*dims : (i+1)*dims : (i+1)*dims]
		copy(shape, x.Shape)
		shape[0] = end - start
		r.views[i] = tensor.Tensor{Shape: shape, Data: x.Data[start*sampleLen : end*sampleLen : end*sampleLen]}
		r.micros[i] = &r.views[i]
		r.labels[i] = labels[start:end]
	}
}

// end drops the round's references to the caller's batch: between rounds
// the pipeline keeps headers only.
func (r *syncRound) end() {
	for i := range r.views {
		r.views[i].Data = nil
	}
	clear(r.labels)
}

// runStage executes segment s's 1F1B order, exchanging tensors with its
// neighbours over down (to stage s−1) and up (to stage s+1). The file comment
// says which tensor goes back to the pool where.
func (d *DistPipeline) runStage(s int, r *syncRound, busy *time.Duration) error {
	seg := d.segments[s]
	sm := d.sm[s]
	jr := d.journal
	st := &d.stages[s]
	clock := d.clocks[s]
	down, up := d.downs[s], d.ups[s]
	first, last := s == 0, up == nil
	for _, o := range st.ops {
		rec := &st.recs[o.Micro%len(st.recs)]
		clk := &clock[o.Micro]
		if o.Kind == pipeline.TaskForward {
			in := r.micros[o.Micro]
			if !first {
				wait := jr.Begin()
				t0 := time.Now()
				d.in[s][0] = len(r.labels[o.Micro])
				micro, t, err := down.recv(d.in[s])
				t1 := time.Now()
				sm.stallNanos.Add(t1.Sub(t0).Nanoseconds())
				clk.actWait, clk.actGot = t0.Sub(r.start), t1.Sub(r.start)
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
			if dl := time.Duration(d.delays[s].Load()); dl > 0 {
				time.Sleep(dl)
			}
			t1 := time.Now()
			el := t1.Sub(t0)
			*busy += el
			clk.fwd = el
			sm.busyNanos.Add(el.Nanoseconds())
			sm.fwd.Inc()
			endStageSpan(sp, s, "pipe.fwd", o.Micro)
			if !last {
				clk.actSent = t1.Sub(r.start)
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
				micro, t, err := up.recv(rec.Output().Shape)
				t1 := time.Now()
				sm.stallNanos.Add(t1.Sub(t0).Nanoseconds())
				clk.gradWait, clk.gradGot = t0.Sub(r.start), t1.Sub(r.start)
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
			if dl := time.Duration(d.delays[s].Load()); dl > 0 {
				time.Sleep(dl)
			}
			t1 := time.Now()
			el := t1.Sub(t0)
			*busy += el
			clk.bwd = el
			sm.busyNanos.Add(el.Nanoseconds())
			sm.bwd.Inc()
			endStageSpan(sp, s, "pipe.bwd", o.Micro)
			if !first {
				clk.gradSent = t1.Sub(r.start)
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
