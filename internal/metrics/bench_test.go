package metrics

import (
	"fmt"
	"testing"

	"ecofl/internal/obs/journal"
)

// benchRegistry builds a registry shaped like a live fleet server: a few
// dozen counters/gauges plus node-labeled histograms.
func benchRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("ecofl_bench_c%d_total", i), "").Add(int64(i))
		r.Gauge(fmt.Sprintf("ecofl_bench_g%d", i), "").Set(float64(i))
	}
	for i := 0; i < 8; i++ {
		h := r.Histogram("ecofl_bench_seconds", "", DefBuckets, "node", fmt.Sprint(i))
		for j := 0; j < 64; j++ {
			h.Observe(float64(j) * 1e-3)
		}
	}
	return r
}

// BenchmarkSamplerSample measures one full sampling pass over the fleet-shaped
// registry — the per-interval cost a live server pays (default every 1s).
func BenchmarkSamplerSample(b *testing.B) {
	r := benchRegistry()
	sp := NewSampler(journal.NewClock(0, 512, func() float64 { return 0 }), r)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.Sample()
	}
}

// BenchmarkHistogramQuantile is the straggler detector's read path.
func BenchmarkHistogramQuantile(b *testing.B) {
	r := benchRegistry()
	h := r.Histogram("ecofl_bench_seconds", "", DefBuckets, "node", "0")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}
