package scenario

import (
	"math"
	"reflect"
	"testing"

	"ecofl/internal/fl"
	"ecofl/internal/obs/leakcheck"
)

// flnetSmokeSpec is a tiny loopback federation exercising every codec.
func flnetSmokeSpec() *Spec {
	spec, err := Parse([]byte(`{
	  "name": "smoke-test",
	  "topology": "flnet",
	  "seed": 7,
	  "fleet": {"clients": 3, "dataset_size": 200, "local_epochs": 1},
	  "aggregation": {"alpha": 0.5, "mu": 0.05},
	  "wire": {"codec": "mixed", "top_k": 64},
	  "run": {"rounds": 2}
	}`))
	if err != nil {
		panic(err)
	}
	return spec
}

// TestRunFLNetSmoke runs the real loopback transport and checks the report
// carries every metric the regression gate keys on.
func TestRunFLNetSmoke(t *testing.T) {
	base := leakcheck.Baseline()
	rep := runDeclared(t, flnetSmokeSpec(), RunOptions{GitSHA: "testsha", Now: 1754000000})
	leakcheck.Check(t, base)

	if rep.Schema != ReportSchema || rep.Scenario != "smoke-test" || rep.Topology != TopologyFLNet {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.GitSHA != "testsha" || rep.StartedUnix != 1754000000 {
		t.Fatalf("provenance not recorded: sha=%q started=%d", rep.GitSHA, rep.StartedUnix)
	}
	for _, name := range []string{
		"final_accuracy", "best_accuracy", "rounds", "pushes",
		"round_time_p50_s", "round_time_p95_s",
		"bytes_per_push_raw", "bytes_per_push_quant", "bytes_per_push_sparse",
		"server_bytes_read", "server_bytes_written",
		"goroutine_hwm", "peak_heap_bytes",
	} {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("report missing metric %s (have %v)", name, rep.Metrics)
		}
	}
	if len(rep.Curve) != 2 {
		t.Fatalf("want 2 curve points, got %d", len(rep.Curve))
	}
	if rep.Metrics["pushes"] != 6 {
		t.Errorf("3 clients x 2 rounds should push 6 times, got %v", rep.Metrics["pushes"])
	}
	if rep.Metrics["goroutine_hwm"] < 2 {
		t.Errorf("goroutine HWM implausibly low: %v", rep.Metrics["goroutine_hwm"])
	}
	if rep.Metrics["peak_heap_bytes"] <= 0 {
		t.Errorf("peak heap not sampled: %v", rep.Metrics["peak_heap_bytes"])
	}
	// Sparse pushes must actually be smaller than raw — the whole point of
	// reporting bytes per push per codec.
	if rep.Metrics["bytes_per_push_sparse"] >= rep.Metrics["bytes_per_push_raw"] {
		t.Errorf("sparse (%v B) not smaller than raw (%v B)",
			rep.Metrics["bytes_per_push_sparse"], rep.Metrics["bytes_per_push_raw"])
	}
	for name, v := range rep.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s is %v", name, v)
		}
	}
}

// TestRunFLNetAccuracyDeterministic: same spec, same seed → identical curve,
// even though the run crosses real sockets.
func TestRunFLNetAccuracyDeterministic(t *testing.T) {
	a, err := Run(flnetSmokeSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(flnetSmokeSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Curve, b.Curve) {
		t.Fatalf("accuracy curve not deterministic:\n%v\n%v", a.Curve, b.Curve)
	}
	if a.Metrics["bytes_per_push_raw"] != b.Metrics["bytes_per_push_raw"] {
		t.Fatalf("wire bytes not deterministic: %v != %v",
			a.Metrics["bytes_per_push_raw"], b.Metrics["bytes_per_push_raw"])
	}
}

// TestRunFLTopology drives a miniature virtual-time simulation end to end,
// once per row of fl's strategy table: a strategy is valid in a spec because
// it is in the table.
func TestRunFLTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("fl simulation smoke is not -short")
	}
	for _, strategy := range fl.StrategyNames() {
		t.Run(strategy, func(t *testing.T) { testRunFLTopology(t, strategy) })
	}
}

func testRunFLTopology(t *testing.T, strategy string) {
	spec, err := Parse([]byte(`{
	  "name": "fl-mini",
	  "topology": "fl",
	  "seed": 3,
	  "fleet": {"clients": 8, "dataset_size": 300, "max_concurrent": 4, "local_epochs": 1,
	            "mean_delay_s": 40, "std_delay_s": 12},
	  "aggregation": {"strategy": "` + strategy + `", "mu": 0.05, "num_groups": 2},
	  "run": {"duration_s": 200, "eval_interval_s": 50}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep := runDeclared(t, spec, RunOptions{})
	for _, name := range []string{"final_accuracy", "rounds", "round_time_p50_s", "round_time_p95_s", "goroutine_hwm"} {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("fl report missing %s (have %v)", name, rep.Metrics)
		}
	}
	if rep.Metrics["rounds"] <= 0 {
		t.Errorf("no rounds completed: %v", rep.Metrics["rounds"])
	}
	if len(rep.Curve) == 0 {
		t.Error("fl report has no accuracy curve")
	}
	if p50, p95 := rep.Metrics["round_time_p50_s"], rep.Metrics["round_time_p95_s"]; p50 <= 0 || p95 < p50 {
		t.Errorf("round-time quantiles implausible: p50=%v p95=%v", p50, p95)
	}
}

// TestRunRejectsInvalidSpec: the runner itself re-validates, so a
// hand-constructed bad spec cannot sneak past the loader.
func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(&Spec{Name: "x", Topology: "mesh"}, RunOptions{}); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
}

// TestRunFLWithChurn attaches a diurnal availability model to the virtual
// simulation: the run must survive clients vanishing mid-round and report the
// churn accounting alongside the usual metrics.
func TestRunFLWithChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("fl churn smoke is not -short")
	}
	spec, err := Parse([]byte(`{
	  "name": "fl-churn",
	  "topology": "fl",
	  "seed": 5,
	  "fleet": {"clients": 8, "dataset_size": 300, "max_concurrent": 4, "local_epochs": 1,
	            "mean_delay_s": 40, "std_delay_s": 12},
	  "aggregation": {"strategy": "fedavg", "mu": 0.05, "quorum": 0.6},
	  "churn": {"model": "diurnal", "duty_cycle": 0.5},
	  "run": {"duration_s": 300, "eval_interval_s": 60}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep := runDeclared(t, spec, RunOptions{})
	for _, name := range []string{"final_accuracy", "rounds", "churn_departures", "readmissions"} {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("churn report missing %s (have %v)", name, rep.Metrics)
		}
	}
	if rep.Metrics["readmissions"] <= 0 {
		t.Errorf("diurnal churn over 4 day cycles produced no readmissions: %+v", rep.Metrics)
	}
	if len(rep.Curve) == 0 {
		t.Error("churn run has no accuracy curve")
	}
}

// TestRunFLNetWithChurnLeases runs the real transport under diurnal churn
// with lease-based membership: offline clients sit out rounds, their leases
// expire on the virtual clock, and returning clients re-sync transparently.
func TestRunFLNetWithChurnLeases(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "name": "flnet-churn",
	  "topology": "flnet",
	  "seed": 11,
	  "fleet": {"clients": 3, "dataset_size": 200, "local_epochs": 1},
	  "aggregation": {"alpha": 0.5},
	  "wire": {"codec": "raw"},
	  "churn": {"model": "diurnal", "period_s": 8, "duty_cycle": 0.5, "lease_ttl_s": 2},
	  "run": {"rounds": 12},
	  "journal": {"enabled": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Baseline()
	rep := runDeclared(t, spec, RunOptions{})
	leakcheck.Check(t, base)
	for _, name := range []string{"offline_skips", "lease_expired", "lease_resyncs", "sessions_final", "pushes"} {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("lease churn report missing %s (have %v)", name, rep.Metrics)
		}
	}
	if rep.Metrics["offline_skips"] <= 0 {
		t.Errorf("50%% duty cycle over 12 rounds skipped no pushes: %+v", rep.Metrics)
	}
	if rep.Metrics["lease_expired"] <= 0 {
		t.Errorf("4-round offline stretches never outlived the 2s lease TTL: %+v", rep.Metrics)
	}
	if rep.Metrics["push_failures"] > 0 {
		t.Errorf("lease expiry must re-sync transparently, but %v pushes failed", rep.Metrics["push_failures"])
	}
	// Every push that happened is an online push: total slots minus skips.
	want := 3*12 - rep.Metrics["offline_skips"]
	if rep.Metrics["pushes"] != want {
		t.Errorf("pushes = %v, want %v (3 clients x 12 rounds - %v skips)",
			rep.Metrics["pushes"], want, rep.Metrics["offline_skips"])
	}
	if rep.JournalEvents["lease.expire"] == 0 {
		t.Errorf("journal recorded no lease.expire events: %v", rep.JournalEvents)
	}
}

// TestRunFLNetWithChaos: drop-mode chaos on one client's link must not stall
// the run or corrupt the report; retries are surfaced as metrics.
func TestRunFLNetWithChaos(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "name": "chaos",
	  "topology": "flnet",
	  "seed": 9,
	  "fleet": {"clients": 3, "dataset_size": 200, "local_epochs": 1},
	  "aggregation": {"alpha": 0.5},
	  "wire": {"codec": "raw"},
	  "faults": [{"mode": "drop", "prob": 0.2, "after": 6, "clients": [1]}],
	  "run": {"rounds": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Baseline()
	rep := runDeclared(t, spec, RunOptions{})
	leakcheck.Check(t, base)
	if _, ok := rep.Metrics["client_retries"]; !ok {
		t.Fatalf("chaos run missing client_retries (have %v)", rep.Metrics)
	}
	if len(rep.Curve) != 2 {
		t.Fatalf("chaos run lost curve points: %d", len(rep.Curve))
	}
}

// TestRunFLWithAttack runs the fl topology under a 30% sign-flip adversary
// with a median defense: corruptions are injected and surfaced as metrics.
func TestRunFLWithAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("fl attack smoke is not -short")
	}
	spec, err := Parse([]byte(`{
	  "name": "fl-attack",
	  "topology": "fl",
	  "seed": 5,
	  "fleet": {"clients": 8, "dataset_size": 300, "max_concurrent": 4, "local_epochs": 1,
	            "mean_delay_s": 40, "std_delay_s": 12},
	  "aggregation": {"strategy": "fedavg", "mu": 0.05},
	  "attack": {"fraction": 0.3, "mode": "sign-flip", "scale": 4,
	             "defense": {"aggregator": "median"}},
	  "run": {"duration_s": 300, "eval_interval_s": 60}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep := runDeclared(t, spec, RunOptions{})
	for _, name := range []string{"final_accuracy", "adversary_corruptions", "norm_clipped"} {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("attack report missing %s (have %v)", name, rep.Metrics)
		}
	}
	if rep.Metrics["adversary_corruptions"] <= 0 {
		t.Errorf("30%% adversary corrupted nothing: %+v", rep.Metrics)
	}
}

// TestRunFLNetWithAttackNormGate pushes NaN-corrupted updates through the
// real transport with the server's norm gate armed: poisoned pushes are
// quarantined, the model stays finite, and the run completes cleanly.
func TestRunFLNetWithAttackNormGate(t *testing.T) {
	spec, err := Parse([]byte(`{
	  "name": "flnet-attack",
	  "topology": "flnet",
	  "seed": 11,
	  "fleet": {"clients": 4, "dataset_size": 200, "local_epochs": 1},
	  "aggregation": {"alpha": 0.5},
	  "wire": {"codec": "raw"},
	  "attack": {"fraction": 0.5, "mode": "nan",
	             "defense": {"norm_gate": true}},
	  "run": {"rounds": 6}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep := runDeclared(t, spec, RunOptions{})
	if rep.Metrics["adversary_corruptions"] <= 0 {
		t.Errorf("50%% nan adversary corrupted nothing: %+v", rep.Metrics)
	}
	if rep.Metrics["quarantined_pushes"] <= 0 {
		t.Errorf("NaN pushes were not quarantined: %+v", rep.Metrics)
	}
	if rep.Metrics["push_failures"] > 0 {
		t.Errorf("quarantine must ack, not error: %v push failures", rep.Metrics["push_failures"])
	}
	if f, ok := rep.Metrics["final_accuracy"]; !ok || f <= 0 {
		t.Errorf("attacked flnet run produced no usable model: final %v", f)
	}
}
