package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	} {
		err := cmdBench(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}

// The dropout, churn, Byzantine and failover studies are sweep specs, not
// --experiment names: asking for one says what remains and where they went.
func TestRetiredExperimentsNameWhatRemains(t *testing.T) {
	for _, tc := range []struct {
		run       func([]string) error
		exp, want string
	}{
		{cmdFL, "dropout", `unknown fl experiment "dropout" (fig7, fig8, fig9; `},
		{cmdFL, "churn", "ecofl bench --scenario"},
		{cmdFL, "byzantine", "ecofl bench --scenario"},
		{cmdPipeline, "failover", `unknown pipeline experiment "failover" (fig5, fig10, fig11, fig12, fig13, table2; `},
	} {
		err := tc.run([]string{"--experiment", tc.exp})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("--experiment %s: err = %v, want one containing %q", tc.exp, err, tc.want)
		}
	}
}
