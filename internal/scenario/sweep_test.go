package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ecofl/internal/simnet"
)

// runDeclared is Run plus the check that keeps metricsOf honest: a run
// reports no metric that metricsOf does not list for its spec.
func runDeclared(t *testing.T, spec *Spec, opts RunOptions) *Report {
	t.Helper()
	rep, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, name := range metricsOf(spec) {
		declared[name] = true
	}
	for name := range rep.Metrics {
		if !declared[name] {
			t.Errorf("%s (%s) reported %q, which metricsOf does not list", spec.Name, spec.Topology, name)
		}
	}
	return rep
}

// sweepCell returns the one cell of the example sweep whose label is want.
func sweepCell(t *testing.T, file, want string) (*Spec, []string) {
	t.Helper()
	spec, err := Load(filepath.Join("../../examples/scenarios", file))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.label == want {
			return c.spec, spec.Sweep.Report
		}
	}
	t.Fatalf("%s has no cell %s", file, want)
	return nil, nil
}

// TestSweepCellsReproduceDrivers is the cross-commit pin of the port from
// bespoke grid drivers to sweep specs: one cell of each FL sweep, compared
// in every reported metric with what experiments.Dropout / Churn / Byzantine
// computed for that cell at fb8d9de (seed 1, Quick scale; full float
// precision, dumped from the drivers' row structs before they were deleted).
func TestSweepCellsReproduceDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("three Quick-scale fl simulations are not -short")
	}
	for _, tc := range []struct {
		file, cell string
		want       []float64
	}{
		{"sweep-dropout.json", "[aggregation.dropout_prob=0.3 aggregation.quorum=0.6]",
			[]float64{198, 212, 35, 73, 0.9611111111111111, 0.9611111111111111}},
		{"sweep-churn.json", `[churn={"model":"diurnal","duty_cycle":0.5} aggregation.quorum=0.6]`,
			[]float64{232, 114, 156, 40, 0.9861111111111112, 0.9861111111111112}},
		{"sweep-byzantine.json", `[attack.fraction=0.3 attack.defense.aggregator="median"]`,
			[]float64{64, 349, 0.8, 0.8}},
	} {
		spec, report := sweepCell(t, tc.file, tc.cell)
		rep := runDeclared(t, spec, RunOptions{})
		var got []float64
		for _, name := range report {
			got = append(got, rep.Metrics[name])
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %s:\n  %v = %v\n  the driver computed %v", tc.file, tc.cell, report, got, tc.want)
		}
	}
}

// sweepSmoke is a loopback federation swept over codec × rounds: cells of a
// few milliseconds each, deterministic in every reported metric.
func sweepSmoke(t *testing.T, codecs, rounds, report string) *Spec {
	t.Helper()
	spec, err := Parse([]byte(`{
	  "name": "sweep-smoke",
	  "topology": "flnet",
	  "seed": 7,
	  "fleet": {"clients": 3, "dataset_size": 200, "local_epochs": 1},
	  "aggregation": {"alpha": 0.5, "mu": 0.05},
	  "run": {"rounds": 1},
	  "sweep": {
	    "axes": [{"path": "wire.codec", "values": [` + codecs + `]},
	             {"path": "run.rounds", "values": [` + rounds + `]}],
	    "report": [` + report + `]
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSweepGolden pins the table's JSON layout next to report_golden.json,
// which a sweep must not change: table is omitempty and the schema stays v1.
// The raw rows show what a metric the cell does not produce reads: 0.
func TestSweepGolden(t *testing.T) {
	spec := sweepSmoke(t, `"raw", "quant"`, `1, 2`,
		`"rounds", "pushes", "final_accuracy", "bytes_per_push_raw", "bytes_per_push_quant"`)
	rep := runDeclared(t, spec, RunOptions{GitSHA: "abc1234", Now: 1754000000})
	if rep.ElapsedSeconds <= 0 || len(rep.Metrics) != 0 || len(rep.Table.Rows) != 4 {
		t.Fatalf("sweep report: elapsed %v, %d metrics, %d rows", rep.ElapsedSeconds, len(rep.Metrics), len(rep.Table.Rows))
	}
	rep.ElapsedSeconds = 0 // the one wall-clock field
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sweep_golden.json")
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
		t.Errorf("sweep report drifted from the golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSweepOfOneCellEqualsPlainRun: a 1 × 1 sweep's row is the plain spec's
// Metrics, name for name — a sweep adds a table, not a second way to run.
func TestSweepOfOneCellEqualsPlainRun(t *testing.T) {
	swept := sweepSmoke(t, `"quant"`, `2`, `"rounds", "pushes", "final_accuracy", "bytes_per_push_quant"`)
	plain := *swept
	plain.Sweep = nil
	plain.Wire.Codec, plain.Run.Rounds = CodecQuant, 2

	table := runDeclared(t, swept, RunOptions{}).Table
	if len(table.Rows) != 1 || string(table.Rows[0].Values[0]) != `"quant"` || string(table.Rows[0].Values[1]) != "2" {
		t.Fatalf("1 × 1 sweep produced %+v", table)
	}
	metrics := runDeclared(t, &plain, RunOptions{}).Metrics
	for i, name := range table.Metrics {
		if got, want := table.Rows[0].Metrics[i], metrics[name]; got != want || want == 0 {
			t.Errorf("%s: the sweep's row has %v, the plain run %v", name, got, want)
		}
	}
}

// TestRunPipelineReadsFaultEntryAsWritten: the pipeline topology used to take
// mode and prob from faults[0] and run a hard-coded after/stall/partition. A
// sever at probability 1 that the spec exempts the whole run from must now
// abort nothing; at the hard-coded "after": 4 it killed the run.
func TestRunPipelineReadsFaultEntryAsWritten(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "name": "pipeline-after", "topology": "pipeline", "seed": 1,
	  "fleet": {}, "aggregation": {},
	  "faults": [{"mode": "sever", "prob": 1.0, "after": 1000000}],
	  "run": {"rounds": 3},
	  "pipeline": {"micro_batch_size": 6, "fail_round": -1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep := runDeclared(t, spec, RunOptions{})
	if rep.Metrics["rounds_committed"] != 3 || rep.Metrics["rounds_aborted"] != 0 || rep.Metrics["bit_identical"] != 1 {
		t.Fatalf("exempted links must run clean: %v", rep.Metrics)
	}
}

// TestSweepValueReplacesWhatThePathNames: an axis value is the member at its
// path, not a patch over the spec's: a fault entry that does not say stall_ms
// has none, whatever the spec's own entry said, and {} switches a block off.
func TestSweepValueReplacesWhatThePathNames(t *testing.T) {
	spec, err := Parse([]byte(flnetSpec(`"seed":3,
	  "faults":[{"mode":"stall","prob":0.1,"stall_ms":400,"clients":[1]}],
	  "churn":{"model":"diurnal","duty_cycle":0.5,"lease_ttl_s":2},` +
		sweepOf(`{"path":"faults","values":[[{"mode":"sever","prob":0.2}]]},
		         {"path":"churn","values":[{},{"model":"sessions","mean_online_s":3,"mean_offline_s":1}]},
		         {"path":"churn.lease_ttl_s","values":[4]}`, `"rounds"`))))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.cells()
	if err != nil {
		t.Fatal(err)
	}
	wantFault := FaultSpec{Mode: simnet.FaultSever, Prob: 0.2}
	wantChurn := []ChurnSpec{{LeaseTTLS: 4}, {Model: ChurnSessions, MeanOnlineS: 3, MeanOfflineS: 1, LeaseTTLS: 4}}
	for i, c := range cells {
		if len(c.spec.Faults) != 1 || !reflect.DeepEqual(c.spec.Faults[0], wantFault) || c.spec.Churn != wantChurn[i] {
			t.Errorf("cell %s: faults %+v churn %+v", c.label, c.spec.Faults, c.spec.Churn)
		}
		if c.spec.Seed != 3 || c.spec.Sweep != nil || spec.Faults[0].StallMS != 400 {
			t.Errorf("cell %s: the rest of the spec must carry over and the spec itself stay as written", c.label)
		}
	}
}
