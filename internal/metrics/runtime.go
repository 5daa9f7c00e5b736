package metrics

import (
	"math"
	rtm "runtime/metrics"
	"sync"
	"time"
)

// Runtime metric keys read from the Go runtime (runtime/metrics). Reading is
// cheap — a handful of atomic loads inside the runtime — so sampling at
// dashboard cadence (or even per-round) costs nothing measurable; the
// overhead guard test in runtime_test.go pins that claim.
const (
	keyGoroutines = "/sched/goroutines:goroutines"
	keyHeapBytes  = "/memory/classes/heap/objects:bytes"
	keyGCPauses   = "/gc/pauses:seconds"
)

// RuntimeSampler publishes Go runtime health — goroutine count, live heap
// bytes, and the GC stop-the-world pause tail — as gauges on a metrics
// Registry, plus monotone high-water marks so an end-of-run snapshot still
// shows the worst moment of the run. Because the instruments live on the
// ordinary registry they appear on /metrics (Prometheus text format) and in
// the /dash history of any Sampler over that registry without extra wiring.
type RuntimeSampler struct {
	goroutines   *Gauge
	goroutineHWM *Gauge
	heapBytes    *Gauge
	heapPeak     *Gauge
	gcPauseP99   *Gauge
	gcPauses     *Gauge

	mu      sync.Mutex
	samples []rtm.Sample
	hwm     float64 // goroutine high-water mark
	peak    float64 // heap bytes peak
}

// NewRuntimeSampler registers the runtime gauges on r (Default when nil) and
// takes an initial sample so the gauges are never zero-valued placeholders.
func NewRuntimeSampler(r *Registry) *RuntimeSampler {
	if r == nil {
		r = Default
	}
	rs := &RuntimeSampler{
		goroutines: r.Gauge("ecofl_runtime_goroutines",
			"live goroutines at the last runtime sample"),
		goroutineHWM: r.Gauge("ecofl_runtime_goroutines_hwm",
			"goroutine high-water mark since the sampler started"),
		heapBytes: r.Gauge("ecofl_runtime_heap_bytes",
			"bytes of live heap objects at the last runtime sample"),
		heapPeak: r.Gauge("ecofl_runtime_heap_bytes_peak",
			"heap bytes peak since the sampler started"),
		gcPauseP99: r.Gauge("ecofl_runtime_gc_pause_p99_seconds",
			"p99 GC stop-the-world pause over the process lifetime"),
		gcPauses: r.Gauge("ecofl_runtime_gc_pauses_total",
			"GC stop-the-world pauses over the process lifetime"),
		samples: []rtm.Sample{
			{Name: keyGoroutines},
			{Name: keyHeapBytes},
			{Name: keyGCPauses},
		},
	}
	rs.Sample()
	return rs
}

// Sample reads the runtime metrics once and updates the gauges and
// high-water marks. Safe for concurrent use.
func (rs *RuntimeSampler) Sample() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rtm.Read(rs.samples)

	g := float64(rs.samples[0].Value.Uint64())
	rs.goroutines.Set(g)
	if g > rs.hwm {
		rs.hwm = g
	}
	rs.goroutineHWM.Set(rs.hwm)

	h := float64(rs.samples[1].Value.Uint64())
	rs.heapBytes.Set(h)
	if h > rs.peak {
		rs.peak = h
	}
	rs.heapPeak.Set(rs.peak)

	if hist := rs.samples[2].Value.Float64Histogram(); hist != nil {
		n, p99 := pauseQuantile(hist, 0.99)
		rs.gcPauses.Set(float64(n))
		if !math.IsNaN(p99) {
			rs.gcPauseP99.Set(p99)
		}
	}
}

// GoroutineHWM returns the goroutine high-water mark observed so far.
func (rs *RuntimeSampler) GoroutineHWM() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.hwm
}

// PeakHeapBytes returns the heap-bytes peak observed so far.
func (rs *RuntimeSampler) PeakHeapBytes() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.peak
}

// GCPauseP99 returns the lifetime p99 GC pause in seconds (NaN before the
// first GC).
func (rs *RuntimeSampler) GCPauseP99() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rtm.Read(rs.samples[2:3])
	if hist := rs.samples[2].Value.Float64Histogram(); hist != nil {
		_, p99 := pauseQuantile(hist, 0.99)
		return p99
	}
	return math.NaN()
}

// Start samples every interval on a background goroutine until the returned
// stop function is called (idempotent). The final state still matters after
// stopping — call Sample once more at end of run for the freshest peaks.
func (rs *RuntimeSampler) Start(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				rs.Sample()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// pauseQuantile estimates the q-quantile of a runtime Float64Histogram by
// taking the upper edge of the bucket containing the target rank — the
// conservative (pessimistic) estimate, appropriate for pause-time tails. It
// returns the total observation count and the estimate (NaN when empty).
func pauseQuantile(h *rtm.Float64Histogram, q float64) (total uint64, est float64) {
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank {
			// Buckets[i+1] is the bucket's upper edge; the final edge may be
			// +Inf, in which case fall back to its finite lower edge.
			up := h.Buckets[i+1]
			if math.IsInf(up, 1) {
				up = h.Buckets[i]
			}
			return total, up
		}
	}
	return total, h.Buckets[len(h.Buckets)-1]
}
