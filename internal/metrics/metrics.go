// Package metrics is a stdlib-only runtime metrics substrate: a
// concurrency-safe registry of counters, gauges, and fixed-bucket histograms
// with cheap hot-path updates (one atomic op for a counter increment), a
// snapshot API for tests and end-of-run dumps, and a Prometheus text-format
// exposition writer so a live server can be scraped by standard tooling.
//
// Metric handles are obtained once (typically into a package-level var or a
// struct field) and then updated lock-free; the registry lock is only taken
// at registration and snapshot time, never on the hot path.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types in snapshots.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Counter is a monotonically non-decreasing integer. Durations are counted in
// integer nanoseconds (name them *_nanoseconds_total) so the hot path stays a
// single atomic add — no float CAS loop.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (set-dominated; Add uses a CAS
// loop and is intended for low-rate adjustments).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks the running sum, matching the Prometheus
// histogram model. Observe is lock-free.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~20); a linear scan beats binary search at this size
	// and keeps the code allocation-free.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation inside the bucket containing the target rank — the
// same estimator as PromQL's histogram_quantile. The lower edge of the first
// bucket is taken as 0 (the usual case for latency histograms); observations
// landing in the +Inf bucket clamp the estimate to the highest finite bound.
// It returns NaN when the histogram is empty or q is outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	buckets := make([]BucketSample, 0, len(h.bounds)+1)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		buckets = append(buckets, BucketSample{UpperBound: b, Cumulative: cum})
	}
	cum += h.inf.Load()
	buckets = append(buckets, BucketSample{UpperBound: math.Inf(1), Cumulative: cum})
	return QuantileFromBuckets(buckets, q)
}

// DefBuckets is a general-purpose latency bucket layout in seconds, spanning
// 100 µs to ~10 s.
var DefBuckets = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponentially growing upper bounds starting at start
// and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered instrument.
type metric struct {
	family string   // name without labels
	labels []string // alternating k, v — sorted by key, pre-validated
	kind   Kind
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	digest  *[4]string // a histogram's Digest families, named once
}

// fullName renders family{k="v",...} with an optional extra label appended
// (used for the histogram "le" label).
func (m *metric) fullName(extraK, extraV string) string {
	if len(m.labels) == 0 && extraK == "" {
		return m.family
	}
	var b strings.Builder
	b.WriteString(m.family)
	b.WriteByte('{')
	for i := 0; i+1 < len(m.labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", m.labels[i], escapeLabelValue(m.labels[i+1]))
	}
	if extraK != "" {
		if len(m.labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", extraK, escapeLabelValue(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A package-level Default registry serves the common case.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // keyed by fullName("","")
	order   []string           // registration order of keys
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry used by the package-level helpers and
// by instrumented subsystems that are not handed an explicit registry.
var Default = NewRegistry()

// labelPairs validates and normalizes alternating key/value label arguments.
func labelPairs(name string, kv []string) []string {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd label list %v", name, kv))
	}
	if len(kv) == 0 {
		return nil
	}
	out := append([]string(nil), kv...)
	// Sort pairs by key so the same label set always yields the same key.
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(out)/2)
	for i := 0; i+1 < len(out); i += 2 {
		if out[i] == "" || strings.ContainsAny(out[i], `{}",=`) {
			panic(fmt.Sprintf("metrics: %s: bad label name %q", name, out[i]))
		}
		pairs = append(pairs, pair{out[i], out[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	out = out[:0]
	for _, p := range pairs {
		out = append(out, p.k, p.v)
	}
	return out
}

// lookup returns the metric registered under (name, labels), creating it with
// mk when absent. It panics if the name is reused with a different kind —
// that is always an instrumentation bug worth failing loudly on.
func (r *Registry) lookup(name, help string, kind Kind, kv []string, mk func(m *metric)) *metric {
	labels := labelPairs(name, kv)
	probe := &metric{family: name, labels: labels}
	key := probe.fullName("", "")
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", key, m.kind, kind))
		}
		return m
	}
	probe.kind = kind
	probe.help = help
	mk(probe)
	r.metrics[key] = probe
	r.order = append(r.order, key)
	return probe
}

// Counter returns the counter registered under name and optional label
// pairs, creating it on first use.
func (r *Registry) Counter(name, help string, labelKV ...string) *Counter {
	m := r.lookup(name, help, KindCounter, labelKV, func(m *metric) { m.counter = &Counter{} })
	return m.counter
}

// Gauge returns the gauge registered under name and optional label pairs.
func (r *Registry) Gauge(name, help string, labelKV ...string) *Gauge {
	m := r.lookup(name, help, KindGauge, labelKV, func(m *metric) { m.gauge = &Gauge{} })
	return m.gauge
}

// Histogram returns the histogram registered under name with the given
// bucket upper bounds (sorted internally; +Inf is implicit). Buckets are
// fixed at first registration; later calls with the same name return the
// existing histogram regardless of the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labelKV ...string) *Histogram {
	m := r.lookup(name, help, KindHistogram, labelKV, func(m *metric) {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs))}
		m.hist = h
		m.digest = &[4]string{name + ":count", name + ":sum", name + ":p50", name + ":p99"}
	})
	return m.hist
}

// Counter, Gauge and Histogram on the Default registry.
func GetCounter(name, help string, labelKV ...string) *Counter {
	return Default.Counter(name, help, labelKV...)
}
func GetGauge(name, help string, labelKV ...string) *Gauge {
	return Default.Gauge(name, help, labelKV...)
}
func GetHistogram(name, help string, bounds []float64, labelKV ...string) *Histogram {
	return Default.Histogram(name, help, bounds, labelKV...)
}

// BucketSample is one cumulative histogram bucket in a snapshot.
type BucketSample struct {
	UpperBound float64 // math.Inf(1) for the +Inf bucket
	Cumulative int64
}

// Sample is one metric's state at snapshot time.
type Sample struct {
	Name   string // full name including labels
	Family string
	// Labels are the alternating k, v pairs in canonical (key-sorted) order —
	// what telemetry federation needs to re-register a node-labeled view
	// without parsing the rendered Name.
	Labels []string
	Kind   Kind
	Help   string
	// Value carries the counter or gauge value (counters as float64 for
	// uniformity; use Count/Sum/Buckets for histograms).
	Value   float64
	Count   int64
	Sum     float64
	Buckets []BucketSample
	digest  *[4]string // the histogram's Digest families
}

// Snapshot returns every metric's current state, sorted by full name. It is
// safe to call concurrently with hot-path updates; each metric is read
// atomically (histograms bucket-by-bucket).
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	ms := make([]*metric, len(keys))
	for i, k := range keys {
		ms[i] = r.metrics[k]
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(ms))
	for i, m := range ms {
		s := Sample{Name: keys[i], Family: m.family, Kind: m.kind, Help: m.help,
			Labels: append([]string(nil), m.labels...), digest: m.digest}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter.Value())
		case KindGauge:
			s.Value = m.gauge.Value()
		case KindHistogram:
			h := m.hist
			var cum int64
			for bi, b := range h.bounds {
				cum += h.counts[bi].Load()
				s.Buckets = append(s.Buckets, BucketSample{UpperBound: b, Cumulative: cum})
			}
			cum += h.inf.Load()
			s.Buckets = append(s.Buckets, BucketSample{UpperBound: math.Inf(1), Cumulative: cum})
			s.Count = cum
			s.Sum = h.Sum()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Digest yields s's scalar values, the one rule the dashboard's history and
// fleet telemetry share: a counter or gauge yields its value under its own
// family, a histogram its count, sum, p50 and p99 under family:count, :sum,
// :p50 and :p99. Every value carries s.Labels. A sample holding a non-finite
// value yields nothing: JSON has no word for NaN or Inf, and a histogram
// with no observations has no quantiles.
func (s *Sample) Digest(yield func(family string, v float64)) {
	if s.Kind != KindHistogram {
		if finite(s.Value) {
			yield(s.Family, s.Value)
		}
		return
	}
	p50, p99 := QuantileFromBuckets(s.Buckets, 0.5), QuantileFromBuckets(s.Buckets, 0.99)
	if finite(s.Sum) && finite(p50) && finite(p99) {
		yield(s.digest[0], float64(s.Count))
		yield(s.digest[1], s.Sum)
		yield(s.digest[2], p50)
		yield(s.digest[3], p99)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// QuantileFromBuckets estimates the q-quantile from cumulative snapshot
// buckets with the same linear-interpolation rule as Histogram.Quantile.
func QuantileFromBuckets(buckets []BucketSample, q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 || len(buckets) == 0 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].Cumulative
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	lower := 0.0
	var prev int64
	for _, b := range buckets {
		if float64(b.Cumulative) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				// Rank falls in the +Inf bucket: clamp to the highest
				// finite bound (the previous bucket's upper edge).
				return lower
			}
			inBucket := b.Cumulative - prev
			if inBucket == 0 {
				return lower
			}
			if b.UpperBound == lower {
				return b.UpperBound
			}
			frac := (rank - float64(prev)) / float64(inBucket)
			return lower + (b.UpperBound-lower)*frac
		}
		if !math.IsInf(b.UpperBound, 1) {
			lower = b.UpperBound
		}
		prev = b.Cumulative
	}
	return lower
}
