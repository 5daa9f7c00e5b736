// Package runtime executes a partitioned model as a real 1F1B-Sync pipeline:
// one goroutine per stage, activations and gradients crossing binary-framed
// links (net.Pipe in process, TCP between devices), each stage walking the
// op order pipeline.Order gives the scheduler. Because the pipeline is
// synchronous (gradients of all micro-batches accumulate before one flush
// update), a sync-round produces the same parameter update as sequential
// full-mini-batch training — the property the paper's 1F1B-Sync strategy
// guarantees and this package's tests verify. On a many-core host the stages
// genuinely run in parallel.
package runtime

import (
	"strconv"

	"ecofl/internal/metrics"
)

// Observability: per-stage counters on the Default registry plus optional
// span recording into a journal.Recorder. Counters are cheap atomic adds;
// span recording costs nothing when no recorder is attached (a nil
// *journal.Recorder is the nop recorder). None of it touches the math —
// pipelined updates remain bit-identical to sequential training.
var (
	roundsTotal = metrics.GetCounter("ecofl_pipeline_rounds_total",
		"1F1B-Sync sync-rounds committed by the pipeline runtime")
	samplesTotal = metrics.GetCounter("ecofl_pipeline_samples_total",
		"training samples of committed sync-rounds")
	abortsTotal = metrics.GetCounter("ecofl_pipeline_dist_aborts_total",
		"sync-rounds aborted mid-flight (link fault or stage failure); no weights were committed")
)

// stageMetrics are one stage's hot-path instruments, resolved once at
// pipeline construction so per-op updates never take the registry lock.
type stageMetrics struct {
	fwd, bwd   *metrics.Counter // micro-batch ops executed
	busyNanos  *metrics.Counter // time inside Forward/Backward
	stallNanos *metrics.Counter // time blocked waiting for inputs (queue-wait)
	residency  *metrics.Gauge   // K_s of the stage's last round
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
			"time per stage spent blocked on activation/gradient links", "stage", lbl),
		residency: metrics.GetGauge("ecofl_pipeline_stage_residency",
			"micro-batches the stage's last round let be in flight (K_s)", "stage", lbl),
	}
}
