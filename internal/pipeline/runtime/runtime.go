// Package runtime executes a partitioned model as a real 1F1B-Sync pipeline:
// one goroutine per stage, activations and gradients flowing through
// channels, each stage following the same static 1F1B op order the scheduler
// analyzes. Because the pipeline is synchronous (gradients of all
// micro-batches accumulate before one flush update), a sync-round produces
// the same parameter update as sequential full-mini-batch training — the
// property the paper's 1F1B-Sync strategy guarantees and this package's
// tests verify. On a many-core host the stages genuinely run in parallel.
package runtime

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ecofl/internal/metrics"
	"ecofl/internal/model"
	"ecofl/internal/nn"
	"ecofl/internal/obs"
	"ecofl/internal/tensor"
)

// Observability: per-stage counters on the Default registry plus optional
// span recording through an obs.Trace. Counters are cheap atomic adds; span
// recording costs nothing when no trace is attached (nil *obs.Trace is the
// nop recorder). None of it touches the math — pipelined updates remain
// bit-identical to sequential training.
var (
	roundsTotal = metrics.GetCounter("ecofl_pipeline_rounds_total",
		"1F1B-Sync sync-rounds executed by the live pipeline runtime")
	samplesTotal = metrics.GetCounter("ecofl_pipeline_samples_total",
		"training samples pushed through the live pipeline runtime")
)

// stageMetrics are one stage's hot-path instruments, resolved once at
// pipeline construction so per-op updates never take the registry lock.
type stageMetrics struct {
	fwd, bwd   *metrics.Counter // micro-batch ops executed
	busyNanos  *metrics.Counter // time inside Forward/Backward
	stallNanos *metrics.Counter // time blocked waiting for inputs (queue-wait)
}

func newStageMetrics(s int) stageMetrics {
	lbl := strconv.Itoa(s)
	return stageMetrics{
		fwd: metrics.GetCounter("ecofl_pipeline_stage_fwd_total",
			"forward micro-batch ops per stage", "stage", lbl),
		bwd: metrics.GetCounter("ecofl_pipeline_stage_bwd_total",
			"backward micro-batch ops per stage", "stage", lbl),
		busyNanos: metrics.GetCounter("ecofl_pipeline_stage_busy_nanoseconds_total",
			"time per stage spent inside Forward/Backward", "stage", lbl),
		stallNanos: metrics.GetCounter("ecofl_pipeline_stage_stall_nanoseconds_total",
			"time per stage spent blocked on activation/gradient queues", "stage", lbl),
	}
}

// Pipeline is a live pipelined trainer over a block-aligned Trainable.
type Pipeline struct {
	trainable *model.Trainable
	segments  []*nn.Network
	sm        []stageMetrics
	trace     *obs.Trace
}

// New builds a pipeline from cut points (block indices where the model is
// split; len(cuts)+1 stages). Cuts must be strictly increasing within
// (0, numBlocks).
func New(tr *model.Trainable, cuts []int) (*Pipeline, error) {
	nb := len(tr.Blocks)
	b := append([]int{0}, cuts...)
	b = append(b, nb)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] || b[i] > nb {
			return nil, fmt.Errorf("runtime: invalid cuts %v for %d blocks", cuts, nb)
		}
	}
	p := &Pipeline{trainable: tr}
	for s := 0; s+1 < len(b); s++ { // stage s runs blocks [b[s], b[s+1])
		p.segments = append(p.segments, tr.SegmentNet(b[s], b[s+1]))
		p.sm = append(p.sm, newStageMetrics(s))
	}
	return p, nil
}

// SetTrace attaches a span recorder: every subsequent sync-round records
// per-micro-batch forward/backward spans and queue-wait spans, one timeline
// track per stage. A nil trace (the default) disables recording at ~0 cost.
func (p *Pipeline) SetTrace(tr *obs.Trace) {
	p.trace = tr
	if tr != nil {
		tr.SetProcessName(0, "pipeline")
		for s := range p.segments {
			tr.SetThreadName(0, s, fmt.Sprintf("stage %d", s))
		}
	}
}

// NumStages returns the number of pipeline stages.
func (p *Pipeline) NumStages() int { return len(p.segments) }

// Network returns the underlying full network (shared parameters).
func (p *Pipeline) Network() *nn.Network { return p.trainable.Network() }

type op struct {
	forward bool
	micro   int
}

// order1F1B returns the stage's static 1F1B op order with residency k.
func order1F1B(m, k int) []op {
	if k > m {
		k = m
	}
	if k < 1 {
		k = 1
	}
	ops := make([]op, 0, 2*m)
	for i := 0; i < k; i++ {
		ops = append(ops, op{true, i})
	}
	for i := 0; i < m-k; i++ {
		ops = append(ops, op{false, i}, op{true, k + i})
	}
	for i := m - k; i < m; i++ {
		ops = append(ops, op{false, i})
	}
	return ops
}

// splitMicroBatches slices a mini-batch into micro-batches of mbs samples,
// preserving the per-sample tensor shape (e.g. NCHW for CNNs). Nothing is
// copied: each micro-batch is a view of its rows of x, so it must be treated
// like x itself — read, never written, never returned to the tensor pool.
func splitMicroBatches(x *tensor.Tensor, labels []int, mbs int) ([]*tensor.Tensor, [][]int) {
	rows := x.Rows()
	sampleLen := x.Cols()
	m := (rows + mbs - 1) / mbs
	views := make([]tensor.Tensor, m)
	shapes := make([]int, m*len(x.Shape))
	micros := make([]*tensor.Tensor, m)
	microLabels := make([][]int, m)
	for i := range micros {
		start := i * mbs
		end := min(start+mbs, rows)
		shape := shapes[i*len(x.Shape) : (i+1)*len(x.Shape) : (i+1)*len(x.Shape)]
		copy(shape, x.Shape)
		shape[0] = end - start
		views[i] = tensor.Tensor{Shape: shape, Data: x.Data[start*sampleLen : end*sampleLen : end*sampleLen]}
		micros[i] = &views[i]
		microLabels[i] = labels[start:end]
	}
	return micros, microLabels
}

// TrainSyncRound splits (x, labels) into micro-batches of size mbs, runs one
// 1F1B-Sync sync-round across the stages, applies one optimizer flush
// update, and returns the mean loss over the mini-batch. The resulting
// parameter update is equivalent to one sequential TrainBatch on the whole
// mini-batch.
func (p *Pipeline) TrainSyncRound(x *tensor.Tensor, labels []int, mbs int, opt *nn.SGD) (float64, error) {
	if mbs <= 0 {
		return 0, errors.New("runtime: micro-batch size must be positive")
	}
	rows := x.Rows()
	if rows != len(labels) || rows == 0 {
		return 0, fmt.Errorf("runtime: %d rows vs %d labels", rows, len(labels))
	}
	micros, microLabels := splitMicroBatches(x, labels, mbs)
	m := len(micros)
	S := p.NumStages()

	p.Network().ZeroGrads()

	// Channels: actCh[s] carries activations from stage s-1 to s;
	// gradCh[s] carries gradients from stage s back to s-1.
	actCh := make([]chan *tensor.Tensor, S+1)
	gradCh := make([]chan *tensor.Tensor, S)
	for i := range actCh {
		actCh[i] = make(chan *tensor.Tensor, m)
	}
	for i := range gradCh {
		gradCh[i] = make(chan *tensor.Tensor, m)
	}
	for _, mb := range micros {
		actCh[0] <- mb
	}

	losses := make([]float64, m)
	tr := p.trace
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seg := p.segments[s]
			sm := p.sm[s]
			caches := make([][]nn.Cache, m)
			outputs := make([]*tensor.Tensor, m) // last stage keeps logits
			// Residency K_s = S − s suffices in-process (no comm delay).
			for _, o := range order1F1B(m, S-s) {
				if o.forward {
					wait := tr.Begin(0, s, "wait-act", "queue")
					t0 := time.Now()
					in := <-actCh[s]
					t1 := time.Now()
					sm.stallNanos.Add(t1.Sub(t0).Nanoseconds())
					wait.End()
					sp := tr.Begin(0, s, "fwd", "compute")
					out, c := seg.Forward(in)
					sm.busyNanos.Add(time.Since(t1).Nanoseconds())
					sm.fwd.Inc()
					sp.EndMicro(o.micro)
					caches[o.micro] = c
					if s == S-1 {
						outputs[o.micro] = out
					} else {
						actCh[s+1] <- out
					}
				} else {
					var dy *tensor.Tensor
					t1 := time.Now()
					if s == S-1 {
						var loss float64
						loss, dy = nn.SoftmaxCrossEntropy(outputs[o.micro], microLabels[o.micro])
						losses[o.micro] = loss
						// Flush semantics: the mini-batch gradient is the
						// sample-weighted mean of micro-batch gradients.
						dy.Scale(float64(outputs[o.micro].Rows()) / float64(rows))
					} else {
						wait := tr.Begin(0, s, "wait-grad", "queue")
						t0 := t1
						dy = <-gradCh[s+1]
						t1 = time.Now()
						sm.stallNanos.Add(t1.Sub(t0).Nanoseconds())
						wait.End()
					}
					sp := tr.Begin(0, s, "bwd", "compute")
					dx := seg.Backward(caches[o.micro], dy)
					sm.busyNanos.Add(time.Since(t1).Nanoseconds())
					sm.bwd.Inc()
					sp.EndMicro(o.micro)
					caches[o.micro] = nil
					if s > 0 {
						gradCh[s] <- dx
					}
				}
			}
		}(s)
	}
	wg.Wait()
	roundsTotal.Inc()
	samplesTotal.Add(int64(rows))

	// Pipeline flush: one synchronous update over the accumulated grads.
	opt.Step(p.Network().Params())

	var loss float64
	for i, l := range losses {
		loss += l * float64(len(microLabels[i]))
	}
	return loss / float64(rows), nil
}
