package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// escapeLabelValue escapes a label value per the Prometheus text exposition
// format: backslash, double-quote, and line feed become \\, \" and \n; every
// other byte (including tabs and non-ASCII UTF-8) passes through verbatim.
// Go's %q is NOT equivalent — it escapes tabs and non-printable runes with
// Go-only sequences that Prometheus parsers reject or mis-read.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// formatValue renders a float the way the Prometheus text format expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE header per family, counters
// and gauges as single samples, histograms as cumulative _bucket series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	ms := make([]*metric, len(keys))
	for i, k := range keys {
		ms[i] = r.metrics[k]
	}
	r.mu.Unlock()

	// Group by family so multi-label families share one header, keeping
	// families in first-registration order and members in name order.
	byFamily := make(map[string][]*metric)
	var families []string
	for _, m := range ms {
		if _, ok := byFamily[m.family]; !ok {
			families = append(families, m.family)
		}
		byFamily[m.family] = append(byFamily[m.family], m)
	}
	for _, fam := range families {
		members := byFamily[fam]
		sort.Slice(members, func(i, j int) bool {
			return members[i].fullName("", "") < members[j].fullName("", "")
		})
		head := members[0]
		if head.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, head.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, head.kind); err != nil {
			return err
		}
		for _, m := range members {
			var err error
			switch m.kind {
			case KindCounter:
				_, err = fmt.Fprintf(w, "%s %d\n", m.fullName("", ""), m.counter.Value())
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s %s\n", m.fullName("", ""), formatValue(m.gauge.Value()))
			case KindHistogram:
				h := m.hist
				bucket := *m
				bucket.family = m.family + "_bucket"
				var cum int64
				for bi, bound := range h.bounds {
					cum += h.counts[bi].Load()
					if _, err = fmt.Fprintf(w, "%s %d\n", bucket.fullName("le", formatValue(bound)), cum); err != nil {
						return err
					}
				}
				cum += h.inf.Load()
				if _, err = fmt.Fprintf(w, "%s %d\n", bucket.fullName("le", "+Inf"), cum); err != nil {
					return err
				}
				sum := *m
				sum.family = m.family + "_sum"
				if _, err = fmt.Fprintf(w, "%s %s\n", sum.fullName("", ""), formatValue(h.Sum())); err != nil {
					return err
				}
				count := *m
				count.family = m.family + "_count"
				_, err = fmt.Fprintf(w, "%s %d\n", count.fullName("", ""), cum)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonMetric is the WriteJSON schema for one metric.
type jsonMetric struct {
	Name    string           `json:"name"`
	Kind    string           `json:"kind"`
	Help    string           `json:"help,omitempty"`
	Value   *float64         `json:"value,omitempty"`
	Count   *int64           `json:"count,omitempty"`
	Sum     *float64         `json:"sum,omitempty"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// WriteJSON dumps a snapshot as indented JSON — the end-of-run export format
// of `cmd/ecofl --metrics-json`. NaN/±Inf values are rendered as strings in
// the buckets map keys and clamped to null for values (encoding/json cannot
// represent them).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	out := make([]jsonMetric, 0, len(snap))
	for _, s := range snap {
		jm := jsonMetric{Name: s.Name, Kind: s.Kind.String(), Help: s.Help}
		switch s.Kind {
		case KindCounter, KindGauge:
			if v := s.Value; finite(v) {
				jm.Value = &v
			}
		case KindHistogram:
			c, sum := s.Count, s.Sum
			jm.Count = &c
			if finite(sum) {
				jm.Sum = &sum
			}
			jm.Buckets = make(map[string]int64, len(s.Buckets))
			for _, b := range s.Buckets {
				jm.Buckets[formatValue(b.UpperBound)] = b.Cumulative
			}
		}
		out = append(out, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }
