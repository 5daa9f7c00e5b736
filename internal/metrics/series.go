package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// Series is a fixed-capacity ring buffer of (time, value) samples — the
// history behind the live dashboard's sparklines. Appends past capacity
// overwrite the oldest point, so memory stays bounded no matter how long a
// server runs.
type Series struct {
	mu   sync.Mutex
	ts   []float64
	vs   []float64
	head int // index of the oldest sample when full
	n    int
}

// NewSeries returns an empty series holding at most capacity points.
func NewSeries(capacity int) *Series {
	if capacity < 1 {
		panic("metrics: NewSeries wants capacity >= 1")
	}
	return &Series{ts: make([]float64, capacity), vs: make([]float64, capacity)}
}

// Append records one sample, evicting the oldest when full.
func (s *Series) Append(t, v float64) {
	s.mu.Lock()
	if s.n < len(s.ts) {
		i := (s.head + s.n) % len(s.ts)
		s.ts[i], s.vs[i] = t, v
		s.n++
	} else {
		s.ts[s.head], s.vs[s.head] = t, v
		s.head = (s.head + 1) % len(s.ts)
	}
	s.mu.Unlock()
}

// Len returns the number of stored samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Points returns the stored samples oldest-first.
func (s *Series) Points() (ts, vs []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts = make([]float64, s.n)
	vs = make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		j := (s.head + i) % len(s.ts)
		ts[i], vs[i] = s.ts[j], s.vs[j]
	}
	return ts, vs
}

// Sampler turns point-in-time registry snapshots into bounded history: each
// Sample() walks the attached registries and appends every counter and gauge
// value — and every histogram's count, sum, p50 and p99 — to a per-metric
// Series. Metrics appearing after the sampler started are picked up on the
// next Sample, so late-registered instruments (e.g. per-client gauges) need
// no coordination.
type Sampler struct {
	window int
	regs   []*Registry
	clock  func() float64

	mu     sync.Mutex
	series map[string]*Series
	order  []string
}

// NewSampler returns a sampler keeping window points per metric across the
// given registries (Default when none given). Timestamps are wall-clock
// seconds since the sampler's creation.
func NewSampler(window int, regs ...*Registry) *Sampler {
	if len(regs) == 0 {
		regs = []*Registry{Default}
	}
	t0 := time.Now()
	return &Sampler{
		window: window,
		regs:   regs,
		clock:  func() float64 { return time.Since(t0).Seconds() },
		series: make(map[string]*Series),
	}
}

// SetClock replaces the timestamp source (tests, virtual-time runs).
func (sp *Sampler) SetClock(clock func() float64) { sp.clock = clock }

func (sp *Sampler) append(name string, t, v float64) {
	sp.mu.Lock()
	s, ok := sp.series[name]
	if !ok {
		s = NewSeries(sp.window)
		sp.series[name] = s
		sp.order = append(sp.order, name)
	}
	sp.mu.Unlock()
	s.Append(t, v)
}

// Sample takes one snapshot of every attached registry.
func (sp *Sampler) Sample() {
	now := sp.clock()
	for _, r := range sp.regs {
		for _, s := range r.Snapshot() {
			switch s.Kind {
			case KindCounter, KindGauge:
				sp.append(s.Name, now, s.Value)
			case KindHistogram:
				sp.append(s.Name+":count", now, float64(s.Count))
				sp.append(s.Name+":sum", now, s.Sum)
				sp.append(s.Name+":p50", now, QuantileFromBuckets(s.Buckets, 0.5))
				sp.append(s.Name+":p99", now, QuantileFromBuckets(s.Buckets, 0.99))
			}
		}
	}
}

// Start samples every interval on a background goroutine until the returned
// stop function is called (idempotent).
func (sp *Sampler) Start(interval time.Duration) (stop func()) {
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
				sp.Sample()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Series returns the history recorded under name (nil if never sampled).
func (sp *Sampler) Series(name string) *Series {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.series[name]
}

// Names returns every recorded series name in first-seen order.
func (sp *Sampler) Names() []string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]string(nil), sp.order...)
}

// seriesJSON is the /api/series wire schema for one metric history.
type seriesJSON struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

// WriteJSON dumps every series as {"series":[{name, points:[[t,v],...]}]}.
// NaN/±Inf points (e.g. quantiles of an empty histogram) are skipped —
// encoding/json cannot represent them.
func (sp *Sampler) WriteJSON(w io.Writer) error {
	names := sp.Names()
	out := struct {
		Series []seriesJSON `json:"series"`
	}{Series: make([]seriesJSON, 0, len(names))}
	for _, name := range names {
		s := sp.Series(name)
		if s == nil {
			continue
		}
		ts, vs := s.Points()
		sj := seriesJSON{Name: name, Points: make([][2]float64, 0, len(ts))}
		for i := range ts {
			if math.IsNaN(vs[i]) || math.IsInf(vs[i], 0) {
				continue
			}
			sj.Points = append(sj.Points, [2]float64{ts[i], vs[i]})
		}
		out.Series = append(out.Series, sj)
	}
	return json.NewEncoder(w).Encode(out)
}

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
