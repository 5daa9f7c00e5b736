package metrics

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRuntimeSamplerGauges(t *testing.T) {
	reg := NewRegistry()
	rs := NewRuntimeSampler(reg)

	g, ok := lookup(reg, "ecofl_runtime_goroutines")
	if !ok {
		t.Fatal("goroutine gauge not registered")
	}
	if g.Value < 1 {
		t.Fatalf("goroutine gauge = %v, want >= 1", g.Value)
	}
	h, _ := lookup(reg, "ecofl_runtime_heap_bytes")
	if h.Value <= 0 {
		t.Fatalf("heap gauge = %v, want > 0", h.Value)
	}

	// The high-water mark must ratchet: park goroutines, sample, release.
	release := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() { <-release }()
	}
	rs.Sample()
	close(release)
	hwmAt := rs.GoroutineHWM()
	if hwmAt < g.Value {
		t.Fatalf("HWM %v below earlier live count %v", hwmAt, g.Value)
	}
	rs.Sample()
	if rs.GoroutineHWM() < hwmAt {
		t.Fatalf("HWM went down: %v -> %v", hwmAt, rs.GoroutineHWM())
	}
	if rs.PeakHeapBytes() <= 0 {
		t.Fatalf("peak heap = %v, want > 0", rs.PeakHeapBytes())
	}
}

func TestRuntimeSamplerGCPause(t *testing.T) {
	reg := NewRegistry()
	rs := NewRuntimeSampler(reg)
	runtime.GC()
	rs.Sample()
	p, _ := lookup(reg, "ecofl_runtime_gc_pauses_total")
	if p.Value < 1 {
		t.Fatalf("GC pauses gauge = %v after forced GC, want >= 1", p.Value)
	}
	p99 := rs.GCPauseP99()
	if math.IsNaN(p99) || p99 < 0 {
		t.Fatalf("GC pause p99 = %v, want a non-negative number", p99)
	}
}

func TestRuntimeSamplerOnPrometheusExport(t *testing.T) {
	reg := NewRegistry()
	NewRuntimeSampler(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ecofl_runtime_goroutines", "ecofl_runtime_goroutines_hwm",
		"ecofl_runtime_heap_bytes", "ecofl_runtime_heap_bytes_peak",
		"ecofl_runtime_gc_pause_p99_seconds",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("/metrics export missing %s", name)
		}
	}
}

func TestRuntimeSamplerStartStop(t *testing.T) {
	reg := NewRegistry()
	rs := NewRuntimeSampler(reg)
	stop := rs.Start(5 * time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	stop()
	stop() // idempotent
	if rs.GoroutineHWM() < 1 {
		t.Fatal("background sampling never ran")
	}
}

// TestRuntimeSamplerOverhead is the overhead guard: one Sample() must stay
// far below a dashboard sampling period, so attaching the sampler to a run
// can never perturb what it measures. runtime/metrics.Read is a few
// microseconds; the 200µs/op budget leaves room for slow CI machines while
// still catching an accidental O(heap) or allocating implementation.
func TestRuntimeSamplerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard")
	}
	reg := NewRegistry()
	rs := NewRuntimeSampler(reg)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rs.Sample()
		}
	})
	if ns := res.NsPerOp(); ns > 200_000 {
		t.Fatalf("RuntimeSampler.Sample costs %d ns/op, budget 200µs", ns)
	}
	if allocs := res.AllocsPerOp(); allocs > 8 {
		t.Fatalf("RuntimeSampler.Sample allocates %d objects/op, want <= 8", allocs)
	}
}
