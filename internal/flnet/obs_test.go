package flnet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecofl/internal/metrics"
)

// snapshotValues reads the current values of the protocol counters so tests
// can assert deltas — the Default registry is shared and accumulates across
// the package's tests.
func snapshotValues() map[string]int64 {
	return map[string]int64{
		"srvPull":     srvRequestsPull.Value(),
		"srvPush":     srvRequestsPush.Value(),
		"srvRaw":      srvPayloadRaw.Value(),
		"srvQuant":    srvPayloadQuant.Value(),
		"srvErrors":   srvPushErrors.Value(),
		"srvIn":       srvBytesIn.Value(),
		"srvOut":      srvBytesOut.Value(),
		"cliPull":     cliRequestsPull.Value(),
		"cliPush":     cliRequestsPush.Value(),
		"cliIn":       cliBytesIn.Value(),
		"cliOut":      cliBytesOut.Value(),
		"srvLatCount": srvRequestSeconds.Count(),
	}
}

// TestMetricsScrapeAfterRoundTrip drives a real server+client exchange (one
// pull, one raw push, one quantized push, one rejected push) and then
// scrapes /metrics over HTTP, asserting the protocol counters, byte counts,
// and latency histogram are present and consistent with the traffic.
func TestMetricsScrapeAfterRoundTrip(t *testing.T) {
	before := snapshotValues()

	s := startServer(t, []float64{1, 2, 3}, 0.5)
	c, err := DialOptions(s.Addr(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, v, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if _, v, err = c.Push([]float64{3, 4, 5}, 10, v); err != nil {
		t.Fatal(err)
	}
	if _, v, err = c.PushQuantized(w, 10, v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Push([]float64{1}, 10, v); err == nil {
		t.Fatal("dimension-mismatched push must be rejected")
	}

	after := snapshotValues()
	delta := func(k string) int64 { return after[k] - before[k] }
	if delta("srvPull") != 1 || delta("cliPull") != 1 {
		t.Fatalf("pull counters: server +%d, client +%d, want +1/+1", delta("srvPull"), delta("cliPull"))
	}
	if delta("srvPush") != 3 || delta("cliPush") != 3 {
		t.Fatalf("push counters: server +%d, client +%d, want +3/+3", delta("srvPush"), delta("cliPush"))
	}
	if delta("srvRaw") != 2 || delta("srvQuant") != 1 {
		t.Fatalf("payload counters: raw +%d, quantized +%d, want +2/+1", delta("srvRaw"), delta("srvQuant"))
	}
	if delta("srvErrors") != 1 {
		t.Fatalf("push errors +%d, want +1", delta("srvErrors"))
	}
	if delta("srvLatCount") != 4 {
		t.Fatalf("latency histogram count +%d, want +4 (one per request)", delta("srvLatCount"))
	}
	// Bytes flow both ways, and what the client wrote is what the server
	// read (same loopback connection, both fully drained).
	if delta("srvIn") == 0 || delta("srvOut") == 0 || delta("cliIn") == 0 || delta("cliOut") == 0 {
		t.Fatalf("byte counters did not move: %+v vs %+v", before, after)
	}
	if delta("srvIn") != delta("cliOut") {
		t.Fatalf("server read %d bytes but client wrote %d", delta("srvIn"), delta("cliOut"))
	}
	if delta("srvOut") != delta("cliIn") {
		t.Fatalf("server wrote %d bytes but client read %d", delta("srvOut"), delta("cliIn"))
	}

	// Scrape the live exposition endpoint and check families + histogram
	// buckets render.
	hs := httptest.NewServer(metrics.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`ecofl_flnet_server_requests_total{kind="pull"}`,
		`ecofl_flnet_server_requests_total{kind="push"}`,
		`ecofl_flnet_server_push_payload_total{encoding="quantized"}`,
		`ecofl_flnet_server_push_errors_total`,
		`ecofl_flnet_server_bytes_read_total`,
		`ecofl_flnet_server_bytes_written_total`,
		`ecofl_flnet_server_request_seconds_bucket`,
		`ecofl_flnet_server_request_seconds_sum`,
		`ecofl_flnet_server_request_seconds_count`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Exposed values match the in-process counters.
	if !strings.Contains(text, fmt.Sprintf("ecofl_flnet_server_push_errors_total %d", srvPushErrors.Value())) {
		t.Fatalf("exposed push_errors disagrees with counter:\n%s", text)
	}
}
