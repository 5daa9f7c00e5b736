package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecofl/internal/flnet"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
)

// TestMetricsMuxServesDashboard drives the observability endpoint of a server
// without a fleet journal: the dashboard's history feed holds a sampled gauge,
// the page fetches that feed, /events serves an empty timeline, and /healthz
// answers.
func TestMetricsMuxServesDashboard(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server, err := flnet.NewServerOpts(ln, []float64{0}, flnet.ServerOptions{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	reg := metrics.NewRegistry()
	reg.Gauge("ecofl_mux_test_gauge", "").Set(3)
	history := metrics.NewSampler(journal.New(journal.None, 4), reg, server.Fleet().Registry())
	history.Sample()
	history.Sample()

	srv := httptest.NewServer(metricsMux(history, server.Fleet()))
	defer srv.Close()
	get := func(path, wantType string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.Contains(ct, wantType) {
			t.Fatalf("%s: status %d, content type %q, want 200 and %s", path, resp.StatusCode, ct, wantType)
		}
		return body
	}

	var series struct {
		Series []struct {
			Name   string       `json:"name"`
			Points [][2]float64 `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(get("/api/series", "application/json"), &series); err != nil {
		t.Fatal(err)
	}
	if len(series.Series) != 1 || series.Series[0].Name != "ecofl_mux_test_gauge" ||
		len(series.Series[0].Points) != 2 || series.Series[0].Points[1][1] != 3 {
		t.Fatalf("/api/series = %+v, want the gauge's two points", series)
	}

	if page := string(get("/dash", "text/html")); !strings.Contains(page, `fetch("api/series"`) {
		t.Fatal("/dash does not fetch api/series")
	}

	var events struct {
		Count  int             `json:"count"`
		Events []journal.Event `json:"events"`
	}
	if err := json.Unmarshal(get("/events", "application/json"), &events); err != nil {
		t.Fatal(err)
	}
	if events.Count != 0 || len(events.Events) != 0 {
		t.Fatalf("/events without a fleet journal = %+v, want empty", events)
	}

	if body := string(get("/healthz", "text/plain")); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
}
