package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// lookup returns the snapshot sample under a full metric name (family plus
// labels).
func lookup(r *Registry, name string) (Sample, bool) {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s, true
		}
	}
	return Sample{}, false
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ecofl_test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Get-or-create returns the same instance.
	if r.Counter("ecofl_test_total", "") != c {
		t.Fatal("second Counter() call returned a different instance")
	}
	g := r.Gauge("ecofl_test_gauge", "a gauge")
	g.Set(1.5)
	g.Add(-0.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ecofl_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering ecofl_clash as a gauge should panic")
		}
	}()
	r.Gauge("ecofl_clash", "")
}

func TestLabelsCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ecofl_lbl_total", "", "b", "2", "a", "1")
	b := r.Counter("ecofl_lbl_total", "", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order should not distinguish metrics")
	}
	s, ok := lookup(r, `ecofl_lbl_total{a="1",b="2"}`)
	if !ok {
		t.Fatalf("canonical name not found in snapshot: %+v", r.Snapshot())
	}
	if s.Family != "ecofl_lbl_total" {
		t.Fatalf("family = %q", s.Family)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ecofl_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	s, ok := lookup(r, "ecofl_lat_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCum := []int64{1, 3, 4, 5} // ≤0.1, ≤1, ≤10, +Inf
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range s.Buckets {
		if b.Cumulative != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d (%+v)", i, b.Cumulative, wantCum[i], s.Buckets)
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", s.Buckets[3].UpperBound)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ecofl_reqs_total", "requests", "kind", "push").Add(3)
	r.Counter("ecofl_reqs_total", "requests", "kind", "pull").Add(7)
	r.Gauge("ecofl_acc", "accuracy").Set(0.875)
	h := r.Histogram("ecofl_lat_seconds", "latency", []float64{0.5, 2})
	h.Observe(0.2)
	h.Observe(1)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE ecofl_reqs_total counter",
		`ecofl_reqs_total{kind="push"} 3`,
		`ecofl_reqs_total{kind="pull"} 7`,
		"# TYPE ecofl_acc gauge",
		"ecofl_acc 0.875",
		"# TYPE ecofl_lat_seconds histogram",
		`ecofl_lat_seconds_bucket{le="0.5"} 1`,
		`ecofl_lat_seconds_bucket{le="2"} 2`,
		`ecofl_lat_seconds_bucket{le="+Inf"} 3`,
		"ecofl_lat_seconds_sum 101.2",
		"ecofl_lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Each family header appears exactly once even with several label sets.
	if strings.Count(text, "# TYPE ecofl_reqs_total") != 1 {
		t.Fatalf("duplicated family header:\n%s", text)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ecofl_hits_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "ecofl_hits_total 1") {
		t.Fatalf("handler output:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("ecofl_n_total", "").Add(5)
	h := r.Histogram("ecofl_h", "", []float64{1})
	h.Observe(0.5)
	h.Observe(3)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, b.String())
	}
	if len(out) != 2 {
		t.Fatalf("got %d metrics: %s", len(out), b.String())
	}
}

// TestConcurrentUpdates exercises the lock-free paths under the race
// detector (scripts/ci.sh runs this package with -race).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ecofl_conc_total", "")
	g := r.Gauge("ecofl_conc_gauge", "")
	h := r.Histogram("ecofl_conc_hist", "", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ecofl_q_seconds", "", []float64{1, 2, 4})
	// One observation per finite bucket: the CDF crosses 0.5 halfway through
	// the middle bucket → linear interpolation gives 1.5.
	for _, v := range []float64{0.5, 1.5, 3} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("p50 = %v, want 1.5", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 = %v, want 0 (lower edge of first bucket)", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("p100 = %v, want 4 (upper edge of last occupied bucket)", got)
	}
	// Out-of-range q and the empty histogram are NaN.
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if got := h.Quantile(q); !math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = %v, want NaN", q, got)
		}
	}
	if got := r.Histogram("ecofl_q_empty", "", []float64{1}).Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram p50 = %v, want NaN", got)
	}
}

func TestHistogramQuantileUniformBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ecofl_qu_seconds", "", []float64{1, 10})
	// 100 observations all inside (0, 1]: interpolation treats them as
	// uniformly spread, so pXX ≈ XX/100.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	for _, tc := range []struct{ q, want float64 }{{0.25, 0.25}, {0.5, 0.5}, {0.99, 0.99}} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ecofl_qinf_seconds", "", []float64{1, 2})
	// Everything beyond the last finite bound: the estimate clamps to it.
	h.Observe(50)
	h.Observe(60)
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v, want clamp to highest finite bound 2", got)
	}
	// The snapshot-based estimator agrees with the live one.
	s, ok := lookup(r, "ecofl_qinf_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if got := QuantileFromBuckets(s.Buckets, 0.5); got != h.Quantile(0.5) {
		t.Fatalf("QuantileFromBuckets = %v, Histogram.Quantile = %v", got, h.Quantile(0.5))
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
