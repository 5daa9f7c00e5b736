package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ecofl/internal/fl"
	"ecofl/internal/scenario"
)

const smokeSpec = "../../examples/scenarios/smoke.json"

// One invocation runs one spec and writes that spec's report, not a
// container of reports.
func TestBenchWritesOneReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := cmdBench([]string{"--scenario", smokeSpec, "--out", out, "--git-sha", "abc1234"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != scenario.ReportSchema || rep.Scenario != "smoke" || rep.GitSHA != "abc1234" || len(rep.Metrics) == 0 {
		t.Fatalf("unexpected report: schema %q scenario %q sha %q, %d metrics", rep.Schema, rep.Scenario, rep.GitSHA, len(rep.Metrics))
	}
}

func TestBenchRejectsBadArgs(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"stray positional": {[]string{"--scenario", smokeSpec, "extra.json"}, `unexpected argument "extra.json"`},
		"no scenario":      {nil, "--scenario is required"},
		"svg of one run":   {[]string{"--scenario", smokeSpec, "--svg", "charts"}, "--svg draws a sweep's table"},
	} {
		err := cmdBench(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}

// Every figure of the paper and every study beside them is a spec, not a
// command: asking for a retired command says what remains and where they
// went.
func TestRetiredExperimentsNameWhatRemains(t *testing.T) {
	for _, cmd := range []string{"pipeline", "migrate", "fl", "all"} {
		err := dispatch([]string{cmd, "--model", "effnet-b4"})
		want := `unknown command "` + cmd + `" (bench, headlines, partition, devices; every figure of the paper is a spec: ecofl bench --scenario examples/scenarios/<figure>.json)`
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", cmd, err, want)
		}
	}
}

// A sweep over one numeric axis is charted metric by metric against it; any
// other sweep as one chart of accuracy curves per value of its first axis,
// a line per row named by its other values.
func TestReportCharts(t *testing.T) {
	curve := []fl.Point{{Time: 80, Accuracy: 0.5}, {Time: 160, Accuracy: 0.7}}
	charts := reportCharts("fig9", &scenario.Table{
		Axes: []string{"aggregation.lambda"}, Metrics: []string{"avg_group_js", "best_accuracy"},
		Rows: []scenario.TableRow{
			{Values: []json.RawMessage{json.RawMessage("0")}, Metrics: []float64{0.4, 0.85}, Curve: curve},
			{Values: []json.RawMessage{json.RawMessage("2000")}, Metrics: []float64{0.01, 0.97}, Curve: curve},
		},
	})
	if js := charts["fig9_avg_group_js"]; len(charts) != 2 || js == nil || len(js.Lines) != 1 ||
		!reflect.DeepEqual(js.Lines[0].X, []float64{0, 2000}) || !reflect.DeepEqual(js.Lines[0].Y, []float64{0.4, 0.01}) {
		t.Errorf("λ sweep: charts %v", charts)
	}

	var rows []scenario.TableRow
	for _, dataset := range []string{`"cifar10"`, `"fashion-mnist"`} {
		for _, agg := range []string{`{"strategy":"fedavg"}`, `{"strategy":"eco-fl","lambda":500}`} {
			rows = append(rows, scenario.TableRow{Values: []json.RawMessage{json.RawMessage(dataset), json.RawMessage(agg)},
				Metrics: []float64{1}, Curve: curve})
		}
	}
	charts = reportCharts("fig7", &scenario.Table{Axes: []string{"fleet.dataset", "aggregation"}, Metrics: []string{"rounds"}, Rows: rows})
	for _, name := range []string{"fig7_cifar10", "fig7_fashion-mnist"} {
		c := charts[name]
		if len(charts) != 2 || c == nil || len(c.Lines) != 2 || c.Lines[0].Name != "fedavg" || c.Lines[1].Name != "eco-fl" ||
			!reflect.DeepEqual(c.Lines[1].Y, []float64{0.5, 0.7}) {
			t.Errorf("%s: charts %v", name, charts)
		}
	}
}
