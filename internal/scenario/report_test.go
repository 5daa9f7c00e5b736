package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ecofl/internal/fl"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenReport is a fully-populated report with stable values; the golden
// file pins the exact JSON layout so schema drift is a loud diff, not a
// silent break of downstream consumers.
func goldenReport() *Report {
	r := &Report{
		Schema:         ReportSchema,
		Scenario:       "golden",
		Topology:       TopologyFLNet,
		Seed:           42,
		GitSHA:         "abc1234",
		StartedUnix:    1754000000,
		ElapsedSeconds: 1.5,
		Curve: []fl.Point{
			{Time: 1, Accuracy: 0.5},
			{Time: 2, Accuracy: 0.75},
		},
		Warnings: []string{"2 pushes failed after retries (chaos outlasted the retry budget)"},
	}
	r.setMetric("final_accuracy", 0.75)
	r.setMetric("bytes_per_push_raw", 22096)
	r.setMetric("goroutine_hwm", 9)
	r.setMetric("peak_heap_bytes", 2.5e6)
	r.setMetric("round_time_p95_s", 0.0125)
	return r
}

func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from the golden layout.\ngot:\n%s\nwant:\n%s\n(run go test -update-golden if the change is intentional)", buf.Bytes(), want)
	}
}

// TestReportRoundTrips checks that a serialized report parses back to the
// same content — the property any consumer of a saved report relies on.
func TestReportRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	orig := goldenReport()
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Scenario != orig.Scenario || back.Seed != orig.Seed {
		t.Fatalf("round trip mangled header: %+v", back)
	}
	if len(back.Metrics) != len(orig.Metrics) {
		t.Fatalf("round trip lost metrics: %d != %d", len(back.Metrics), len(orig.Metrics))
	}
	for name := range orig.Metrics {
		if back.Metrics[name] != orig.Metrics[name] {
			t.Errorf("metric %s: %v != %v", name, back.Metrics[name], orig.Metrics[name])
		}
	}
	if len(back.Curve) != 2 || back.Curve[1].Accuracy != 0.75 {
		t.Fatalf("round trip mangled curve: %+v", back.Curve)
	}
}
