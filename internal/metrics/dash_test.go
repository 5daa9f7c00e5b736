package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"ecofl/internal/obs/journal"
)

// tickClock is a recorder clock reading 1, 2, 3, … — one tick per Sample.
func tickClock() func() float64 {
	now := 0.0
	return func() float64 { now++; return now }
}

// history decodes the sampler's /api/series payload into name → points.
func history(t *testing.T, sp *Sampler) map[string][][2]float64 {
	t.Helper()
	var b strings.Builder
	if err := sp.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Series []seriesJSON `json:"series"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	h := map[string][][2]float64{}
	for _, s := range out.Series {
		h[s.Name] = s.Points
	}
	return h
}

func TestSamplerRecordsHistory(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ecofl_s_total", "")
	g := r.Gauge("ecofl_s_gauge", "")
	h := r.Histogram("ecofl_s_seconds", "", []float64{1, 10})

	sp := NewSampler(journal.NewClock(0, 8, tickClock()), r)
	c.Add(2)
	g.Set(0.5)
	h.Observe(0.5)
	sp.Sample()
	c.Add(3)
	g.Set(0.75)
	sp.Sample()

	hist := history(t, sp)
	if pts := hist["ecofl_s_total"]; len(pts) != 2 || pts[0] != [2]float64{1, 2} || pts[1] != [2]float64{2, 5} {
		t.Fatalf("counter history = %v", pts)
	}
	if pts := hist["ecofl_s_gauge"]; len(pts) != 2 || pts[1][1] != 0.75 {
		t.Fatalf("gauge history = %v", pts)
	}
	// Histograms expand to count/sum/p50/p99 series.
	for _, suffix := range []string{":count", ":sum", ":p50", ":p99"} {
		if len(hist["ecofl_s_seconds"+suffix]) != 2 {
			t.Fatalf("histogram series %q = %v; history: %v", suffix, hist["ecofl_s_seconds"+suffix], hist)
		}
	}
	if v := hist["ecofl_s_seconds:count"][0][1]; v != 1 {
		t.Fatalf("histogram count = %v", v)
	}
	if v := hist["ecofl_s_seconds:p50"][0][1]; v != 0.5 {
		t.Fatalf("histogram p50 = %v", v)
	}
	// Metrics registered after the sampler started are picked up.
	r.Gauge("ecofl_s_late", "").Set(9)
	sp.Sample()
	if pts := history(t, sp)["ecofl_s_late"]; len(pts) != 1 || pts[0] != [2]float64{3, 9} {
		t.Fatalf("late-registered gauge history = %v", pts)
	}
}

func TestSamplerWriteJSONSkipsNaN(t *testing.T) {
	r := NewRegistry()
	r.Gauge("ecofl_j_gauge", "").Set(1.5)
	r.Histogram("ecofl_j_empty_seconds", "", []float64{1}) // p50 of empty = NaN
	r.Gauge("ecofl_j_nan", "").Set(math.NaN())
	turns := r.Gauge("ecofl_j_turns_inf", "")
	turns.Set(2)
	sp := NewSampler(journal.NewClock(0, 4, tickClock()), r)
	sp.Sample()
	turns.Set(math.Inf(-1))
	sp.Sample()

	hist := history(t, sp)
	if n := len(hist["ecofl_j_gauge"]); n != 2 {
		t.Fatalf("gauge series points = %d, want 2 (%v)", n, hist)
	}
	if pts := hist["ecofl_j_turns_inf"]; len(pts) != 1 || pts[0] != [2]float64{1, 2} {
		t.Fatalf("-Inf point must be skipped: %v", pts)
	}
	for name := range hist {
		if strings.HasPrefix(name, "ecofl_j_empty_seconds") || name == "ecofl_j_nan" {
			t.Fatalf("a sample that never yielded a finite value has a series: %q in %v", name, hist)
		}
	}
}

// TestSamplerHistoryIsJournalEvents pins the history's whole contract on a
// 3-tick recorder: the ring wraps oldest-first, a late gauge has points from
// its first tick only, non-finite values leave gaps, every served point is
// the sampled float bit for bit, and a labelled histogram's four series carry
// the names /fleet gives them.
func TestSamplerHistoryIsJournalEvents(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("ecofl_e_gauge", "")
	h := r.Histogram("ecofl_e_seconds", "", []float64{0.25, 1}, "stage", "0")
	rec := journal.NewClock(0, 3, tickClock())
	sp := NewSampler(rec, r)

	var late *Gauge
	want := map[string][][2]float64{}
	values := []float64{0.1, math.NaN(), 1.0 / 3, math.Inf(1), math.Nextafter(1, 2), -2.5e-300}
	for tick, v := range values {
		ts := float64(tick + 1)
		g.Set(v)
		h.Observe(ts / 7)
		if tick == 3 {
			late = r.Gauge("ecofl_e_late", "")
		}
		if late != nil {
			late.Set(v * 3)
		}
		sp.Sample()
		if tick < len(values)-3 {
			continue // wrapped out of the 3-tick ring
		}
		for _, s := range r.Snapshot() {
			labels := s.Name[len(s.Family):]
			s.Digest(func(family string, v float64) {
				want[family+labels] = append(want[family+labels], [2]float64{ts, v})
			})
		}
	}
	if want["ecofl_e_gauge"][0][0] != 5 || len(want["ecofl_e_late"]) != 2 || len(want[`ecofl_e_seconds:p50{stage="0"}`]) != 3 {
		t.Fatalf("test setup: want %v", want)
	}

	got := history(t, sp)
	for name, pts := range want {
		if len(got[name]) != len(pts) {
			t.Fatalf("%s: served %v, sampled %v", name, got[name], pts)
		}
		for i, p := range pts {
			q := got[name][i]
			if q[0] != p[0] || math.Float64bits(q[1]) != math.Float64bits(p[1]) {
				t.Fatalf("%s point %d: served %v, sampled %v", name, i, q, p)
			}
		}
	}
	if len(got) != 6 {
		t.Fatalf("served %d series, want 6: %v", len(got), got)
	}

	// The fleet registers each digested value as a gauge of its family with
	// the sample's labels (plus node); the history names it the same way.
	fleet := NewRegistry()
	for _, suffix := range []string{":count", ":sum", ":p50", ":p99"} {
		fleet.Gauge("ecofl_e_seconds"+suffix, "", "stage", "0")
	}
	for _, s := range fleet.Snapshot() {
		if _, ok := got[s.Name]; !ok {
			t.Fatalf("history has no series %s: %v", s.Name, got)
		}
	}

	evs := rec.Events()
	if len(evs) != 3 || evs[0].TS != 4 {
		t.Fatalf("recorder holds %d events from t=%v, want the last 3 ticks", len(evs), evs[0].TS)
	}
	for _, e := range evs {
		if e.Kind != "metric.sample" || len(e.Attrs) != 1 {
			t.Fatalf("history event %+v, want one metric.sample attribute", e)
		}
	}
}

// TestSamplerZeroWindow: a recorder built with capacity 0 holds the journal's
// default window; the sampler records and serves on it.
func TestSamplerZeroWindow(t *testing.T) {
	r := NewRegistry()
	r.Gauge("ecofl_z_gauge", "").Set(1)
	rec := journal.New(0, 0)
	sp := NewSampler(rec, r)
	for i := 0; i <= journal.DefaultCapacity; i++ {
		sp.Sample()
	}
	if rec.Len() != journal.DefaultCapacity {
		t.Fatalf("history holds %d ticks, want %d", rec.Len(), journal.DefaultCapacity)
	}
	api := httptest.NewServer(sp.SeriesHandler())
	defer api.Close()
	resp, err := api.Client().Get(api.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ecofl_z_gauge") {
		t.Fatalf("status %d, body %.200s", resp.StatusCode, body)
	}
}

func TestSeriesAndDashHandlers(t *testing.T) {
	r := NewRegistry()
	r.Gauge("ecofl_dash_gauge", "").Set(2)
	sp := NewSampler(journal.New(0, 4), r)
	sp.Sample()

	api := httptest.NewServer(sp.SeriesHandler())
	defer api.Close()
	resp, err := api.Client().Get(api.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("series endpoint returned invalid JSON: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "ecofl_dash_gauge") {
		t.Fatalf("series payload missing metric:\n%s", body)
	}

	dash := httptest.NewServer(DashHandler())
	defer dash.Close()
	dresp, err := dash.Client().Get(dash.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	page, _ := io.ReadAll(dresp.Body)
	html := string(page)
	if ct := dresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("dash content type %q", ct)
	}
	for _, want := range []string{"<!doctype html", "Eco-FL fleet dashboard", "api/series", "ecofl_straggler"} {
		if !strings.Contains(html, want) {
			t.Fatalf("dashboard page missing %q", want)
		}
	}
}
