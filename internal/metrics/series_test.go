package metrics

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSeriesRingBuffer(t *testing.T) {
	s := NewSeries(3)
	if s.Len() != 0 {
		t.Fatal("empty series reported samples")
	}
	s.Append(1, 10)
	s.Append(2, 20)
	ts, vs := s.Points()
	if len(ts) != 2 || ts[0] != 1 || vs[1] != 20 {
		t.Fatalf("points = %v %v", ts, vs)
	}
	// Overflow evicts oldest-first; order stays chronological.
	s.Append(3, 30)
	s.Append(4, 40)
	s.Append(5, 50)
	ts, vs = s.Points()
	if len(ts) != 3 {
		t.Fatalf("len = %d, want capacity 3", len(ts))
	}
	for i, want := range []float64{3, 4, 5} {
		if ts[i] != want || vs[i] != want*10 {
			t.Fatalf("after wrap: points = %v %v", ts, vs)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestSamplerRecordsHistory(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ecofl_s_total", "")
	g := r.Gauge("ecofl_s_gauge", "")
	h := r.Histogram("ecofl_s_seconds", "", []float64{1, 10})

	sp := NewSampler(8, r)
	now := 0.0
	sp.SetClock(func() float64 { now += 1; return now })

	c.Add(2)
	g.Set(0.5)
	h.Observe(0.5)
	sp.Sample()
	c.Add(3)
	g.Set(0.75)
	sp.Sample()

	ts, vs := sp.Series("ecofl_s_total").Points()
	if len(ts) != 2 || vs[0] != 2 || vs[1] != 5 || ts[0] != 1 || ts[1] != 2 {
		t.Fatalf("counter history = %v %v", ts, vs)
	}
	if _, vs := sp.Series("ecofl_s_gauge").Points(); vs[1] != 0.75 {
		t.Fatalf("gauge history = %v", vs)
	}
	// Histograms expand to count/sum/p50/p99 series.
	for _, suffix := range []string{":count", ":sum", ":p50", ":p99"} {
		if sp.Series("ecofl_s_seconds"+suffix) == nil {
			t.Fatalf("missing histogram series %q; names: %v", suffix, sp.Names())
		}
	}
	if _, vs := sp.Series("ecofl_s_seconds:count").Points(); vs[0] != 1 {
		t.Fatalf("histogram count series = %v", vs)
	}
	if _, vs := sp.Series("ecofl_s_seconds:p50").Points(); vs[0] != 0.5 {
		t.Fatalf("histogram p50 series = %v", vs)
	}
	// Metrics registered after the sampler started are picked up.
	r.Gauge("ecofl_s_late", "").Set(9)
	sp.Sample()
	if s := sp.Series("ecofl_s_late"); s == nil || s.Len() != 1 {
		t.Fatal("late-registered gauge not sampled")
	}
}

func TestSamplerWriteJSONSkipsNaN(t *testing.T) {
	r := NewRegistry()
	r.Gauge("ecofl_j_gauge", "").Set(1.5)
	r.Histogram("ecofl_j_empty_seconds", "", []float64{1}) // p50 of empty = NaN
	sp := NewSampler(4, r)
	sp.SetClock(func() float64 { return 1 })
	sp.Sample()

	var b strings.Builder
	if err := sp.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Series []struct {
			Name   string       `json:"name"`
			Points [][2]float64 `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	byName := map[string]int{}
	for _, s := range out.Series {
		byName[s.Name] = len(s.Points)
	}
	if byName["ecofl_j_gauge"] != 1 {
		t.Fatalf("gauge series points = %d, want 1 (%s)", byName["ecofl_j_gauge"], b.String())
	}
	if n, ok := byName["ecofl_j_empty_seconds:p50"]; !ok || n != 0 {
		t.Fatalf("NaN quantile points must be skipped, got %d present=%v", n, ok)
	}
}

func TestSeriesAndDashHandlers(t *testing.T) {
	r := NewRegistry()
	r.Gauge("ecofl_dash_gauge", "").Set(2)
	sp := NewSampler(4, r)
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
