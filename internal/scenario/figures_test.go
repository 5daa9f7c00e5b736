package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ecofl/internal/fl"
)

// The paper's figures are specs under examples/scenarios; these tests run
// the specs the CLI and ci.sh run and assert the relationships the paper
// reports — who wins, in which direction, where the failure modes appear —
// not absolute numbers (the substrate is a simulator). TestFigureCells pins
// the numbers EXPERIMENTS.md prints for the pipeline figures.

// figures caches each spec's report: TestHeadlines reads the Fig. 8 and
// Fig. 10 runs that TestFLShapes/fig8 and TestFig10Shape assert.
var figures = map[string]*Report{}

// figure runs examples/scenarios/<name>.json once per test binary.
func figure(t *testing.T, name string) *Report {
	t.Helper()
	if rep, ok := figures[name]; ok {
		return rep
	}
	spec, err := Load(filepath.Join("../../examples/scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	figures[name] = runDeclared(t, spec, RunOptions{})
	return figures[name]
}

// metric is row i's reading of a metric the table reports.
func metric(t *testing.T, tab *Table, i int, name string) float64 {
	t.Helper()
	m := slices.Index(tab.Metrics, name)
	if m < 0 {
		t.Fatalf("the table reports no %s (%v)", name, tab.Metrics)
	}
	return tab.Rows[i].Metrics[m]
}

// unquote is a row's value at path without its JSON quotes.
func unquote(tab *Table, i int, path string) string {
	return strings.Trim(tab.Value(i, path), `"`)
}

// ---------------------------------------------------------------- FL figures

// flBands are the tail-mean accuracies (last third of the curve) of every
// (panel, strategy) of Figs. 7 and 8 and the end points of Fig. 9's λ sweep,
// measured at fb8d9de (seed 1, Quick). The runs are seeded and deterministic,
// so TestFLShapes holds each within ±0.03 absolute (±10 % for JS divergence
// and latency) beside the paper's orderings: a refactor that keeps who wins
// but moves a curve by five points fails here. A panel is the value of the
// spec's first axis, a strategy that of aggregation.strategy.
var flBands = map[string]float64{
	"cifar10/fedavg": 0.385417, "cifar10/fedasync": 0.336667, "cifar10/fedat": 0.315000,
	"cifar10/eco-fl-nodg": 0.356111, "cifar10/eco-fl": 0.349444,
	"fashion-mnist/fedavg": 0.728472, "fashion-mnist/fedasync": 0.702778, "fashion-mnist/fedat": 0.610556,
	"fashion-mnist/eco-fl-nodg": 0.695556, "fashion-mnist/eco-fl": 0.733889,
	"rlg-iid/astraea": 0.974444, "rlg-iid/fedat": 0.978333, "rlg-iid/eco-fl": 0.981667,
	"rlg-niid/astraea": 0.957222, "rlg-niid/fedat": 0.841111, "rlg-niid/eco-fl": 0.931667,
}

// tailMeans returns each row's mean accuracy over the last third of its
// curve — robust to the oscillation that biased aggregation produces — by
// panel and strategy, and checks it against flBands.
func tailMeans(t *testing.T, tab *Table) map[string]map[string]float64 {
	t.Helper()
	by := map[string]map[string]float64{}
	for i, row := range tab.Rows {
		panel := unquote(tab, i, tab.Axes[0])
		strategy := unquote(tab, i, "aggregation.strategy")
		tail := row.Curve[len(row.Curve)*2/3:]
		var sum float64
		for _, p := range tail {
			sum += p.Accuracy
		}
		if by[panel] == nil {
			by[panel] = map[string]float64{}
		}
		by[panel][strategy] = sum / float64(len(tail))
		want, ok := flBands[panel+"/"+strategy]
		if !ok || math.Abs(by[panel][strategy]-want) > 0.03 {
			t.Errorf("%s %s: tail-mean accuracy %.4f outside ±0.03 of the measured %.4f", panel, strategy, by[panel][strategy], want)
		}
	}
	return by
}

func TestFLShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("FL simulations take tens of seconds")
	}

	t.Run("fig7", func(t *testing.T) {
		means := tailMeans(t, figure(t, "fig7").Table)
		if len(means["cifar10"]) != 5 || len(means["fashion-mnist"]) != 5 {
			t.Fatalf("fig7 must run five strategies on cifar10 and fashion-mnist, has %v", means)
		}
		for panel, by := range means {
			// Paper Fig. 7: the grouping-based Eco-FL variants beat FedAT,
			// which is the weakest under the dynamic setting.
			if by["eco-fl"] <= by["fedat"]+0.02 {
				t.Fatalf("%s: Eco-FL (%.3f) must beat FedAT (%.3f)", panel, by["eco-fl"], by["fedat"])
			}
			if by["eco-fl-nodg"] <= by["fedat"] {
				t.Fatalf("%s: even without DG the grouping must beat FedAT", panel)
			}
			if by["eco-fl"] <= by["fedasync"]-0.03 {
				t.Fatalf("%s: Eco-FL (%.3f) must not lose to FedAsync (%.3f)", panel, by["eco-fl"], by["fedasync"])
			}
		}
	})

	t.Run("fig8", func(t *testing.T) {
		means := tailMeans(t, figure(t, "fig8").Table)
		get := func(panel, strategy string) float64 {
			v, ok := means[panel][strategy]
			if !ok {
				t.Fatalf("%s: missing %s", panel, strategy)
			}
			return v
		}
		// RLG-IID: everyone is fine (≥0.9).
		for _, strategy := range []string{"astraea", "fedat", "eco-fl"} {
			if get("rlg-iid", strategy) < 0.9 {
				t.Fatalf("RLG-IID %s accuracy %.3f < 0.9", strategy, get("rlg-iid", strategy))
			}
		}
		// RLG-NIID: FedAT degrades badly; Eco-FL and Astraea stay high.
		if get("rlg-niid", "eco-fl") < get("rlg-niid", "fedat")+0.05 {
			t.Fatalf("RLG-NIID: Eco-FL (%.3f) must beat FedAT (%.3f) by a wide margin",
				get("rlg-niid", "eco-fl"), get("rlg-niid", "fedat"))
		}
		if get("rlg-niid", "astraea") < 0.9 {
			t.Fatal("RLG-NIID: Astraea's balanced grouping should stay accurate")
		}
	})

	t.Run("fig9", func(t *testing.T) {
		tab := figure(t, "fig9").Table
		first, last := 0, len(tab.Rows)-1
		if metric(t, tab, last, "avg_group_js") >= metric(t, tab, first, "avg_group_js") {
			t.Fatalf("JS divergence must fall with λ: %.3f → %.3f", metric(t, tab, first, "avg_group_js"), metric(t, tab, last, "avg_group_js"))
		}
		if metric(t, tab, last, "avg_group_latency_s") <= metric(t, tab, first, "avg_group_latency_s") {
			t.Fatalf("group latency must rise with λ: %.2f → %.2f", metric(t, tab, first, "avg_group_latency_s"), metric(t, tab, last, "avg_group_latency_s"))
		}
		var bestMid float64
		for row := 1; row < len(tab.Rows); row++ {
			bestMid = max(bestMid, metric(t, tab, row, "best_accuracy"))
		}
		if bestMid <= metric(t, tab, first, "best_accuracy") {
			t.Fatal("some λ > 0 must improve accuracy over λ = 0")
		}
		// The sweep's end points, measured at fb8d9de (see flBands).
		for _, c := range []struct {
			row              int
			js, latency, acc float64
		}{
			{first, 0.396977, 31.470157, 0.855556},
			{last, 0.006671, 46.840952, 0.966667},
		} {
			lambda := tab.Value(c.row, "aggregation.lambda")
			js, latency, acc := metric(t, tab, c.row, "avg_group_js"), metric(t, tab, c.row, "avg_group_latency_s"), metric(t, tab, c.row, "best_accuracy")
			if math.Abs(js-c.js) > 0.1*c.js || math.Abs(latency-c.latency) > 0.1*c.latency {
				t.Errorf("λ=%s: JS %.6f / latency %.4f outside ±10%% of the measured %.6f / %.4f",
					lambda, js, latency, c.js, c.latency)
			}
			if math.Abs(acc-c.acc) > 0.03 {
				t.Errorf("λ=%s: best accuracy %.4f outside ±0.03 of the measured %.4f", lambda, acc, c.acc)
			}
		}
	})
}

func TestHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs FL simulations")
	}
	h, err := ComputeHeadlines(figure(t, "fig8").Table, figure(t, "fig10").Table)
	if err != nil {
		t.Fatal(err)
	}
	// The run is seeded and deterministic, so each headline is held within
	// ±15 % of the value measured at 2617ef6 (seed 1, Quick): a refactor
	// that halves or doubles one fails here. The floor is the looser second
	// check: direction and magnitude of the paper's three abstract claims.
	for _, c := range []struct {
		name                 string
		got, measured, floor float64
	}{
		{"accuracy upgrade", h.AccuracyUpgrade, 0.2072, 0.05},
		{"training time reduction", h.TrainingTimeReduction, 0.6861, 0.3},
		{"throughput gain", h.ThroughputGain, 6.257, 2.6},
	} {
		if c.got < 0.85*c.measured || c.got > 1.15*c.measured {
			t.Errorf("%s %.4f outside ±15%% of the measured %.4f", c.name, c.got, c.measured)
		}
		if c.got < c.floor {
			t.Errorf("%s %.4f below the paper floor %.2f", c.name, c.got, c.floor)
		}
	}
}

func TestInterpAt(t *testing.T) {
	curve := []fl.Point{{Time: 0, Accuracy: 0}, {Time: 10, Accuracy: 1}}
	if got := interpAt(curve, 5); got != 0.5 {
		t.Fatalf("interp mid = %v", got)
	}
	if got := interpAt(curve, 10); got != 1 {
		t.Fatalf("interp end = %v", got)
	}
	if !math.IsNaN(interpAt(curve, 11)) || !math.IsNaN(interpAt(nil, 0)) {
		t.Fatal("out of range must be NaN")
	}
}

// ---------------------------------------------------------------- pipeline figures

func TestFig5Shape(t *testing.T) {
	tab := figure(t, "fig5").Table
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 configs, got %d", len(tab.Rows))
	}
	const a, b, c = 0, 1, 2
	thr := func(i int) float64 { return metric(t, tab, i, "samples_per_s") }
	// Paper Fig. 5: Config A (TX2 first, mbs 16) is best; B and C, which
	// put the memory-poor Nano first, are worse.
	if !(thr(a) > thr(b) && thr(a) > thr(c)) {
		t.Fatalf("Config A must win: A=%.2f B=%.2f C=%.2f", thr(a), thr(b), thr(c))
	}
	// Config C (Nano first, large mbs) is memory-throttled: K0 < P0.
	if metric(t, tab, c, "k_0") >= metric(t, tab, c, "p_0") {
		t.Fatalf("Config C should be memory-throttled: K0=%v P0=%v", metric(t, tab, c, "k_0"), metric(t, tab, c, "p_0"))
	}
	// And its utilization collapses relative to A.
	if metric(t, tab, c, "stage_util_0") >= metric(t, tab, a, "stage_util_0") {
		t.Fatal("Config C stage-0 utilization must be below Config A's")
	}
}

// fig10Panels indexes the Fig. 10 table by setting (its model) and method;
// a single-device row's method is "<device> Only".
func fig10Panels(t *testing.T) (*Table, map[string]map[string]int) {
	t.Helper()
	tab := figure(t, "fig10").Table
	panels := map[string]map[string]int{}
	for i := range tab.Rows {
		setting, method := unquote(tab, i, "pipeline.model"), unquote(tab, i, "pipeline.method")
		if method == MethodSingle {
			var devs []DeviceSpec
			if err := json.Unmarshal([]byte(tab.Value(i, "pipeline.devices")), &devs); err != nil || len(devs) != 1 {
				t.Fatalf("row %d: single-device row with devices %s", i, tab.Value(i, "pipeline.devices"))
			}
			method = devs[0].Name + " Only"
		}
		if panels[setting] == nil {
			panels[setting] = map[string]int{}
		}
		panels[setting][method] = i
	}
	return tab, panels
}

func TestFig10Shape(t *testing.T) {
	tab, panels := fig10Panels(t)
	if len(panels) != 4 {
		t.Fatalf("want 4 panels, got %d", len(panels))
	}
	find := func(setting, method string) int {
		i, ok := panels[setting][method]
		if !ok {
			t.Fatalf("panel %s missing method %s", setting, method)
		}
		return i
	}
	for setting, methods := range panels {
		pipe, dp := find(setting, Method1F1B), find(setting, MethodDataParallel)
		// Pipeline beats every other method in every panel (Figs. 10/11).
		for method, i := range methods {
			if i != pipe && metric(t, tab, i, "samples_per_s") >= metric(t, tab, pipe, "samples_per_s") {
				t.Fatalf("%s: %s (%.2f) should not beat the pipeline (%.2f)",
					setting, method, metric(t, tab, i, "samples_per_s"), metric(t, tab, pipe, "samples_per_s"))
			}
		}
		// DP is transmission-dominated at 100 Mbps (§6.3's 66.29% claim).
		if share := metric(t, tab, dp, "transmission_share"); share < 0.5 {
			t.Fatalf("%s: DP transmission share %.2f should dominate", setting, share)
		}
		// Curves are monotone in time and consistent with epoch time.
		if c := tab.Rows[pipe].Curve; len(c) == 0 || math.Abs(c[0].Time-metric(t, tab, pipe, "epoch_s")) > 1e-9 {
			t.Fatalf("%s: curve must start at one epoch time", setting)
		}
	}
	// Paper: on MobileNet-W3 DP is slower than a single TX2-Q.
	w3 := "mobilenet-w3"
	if metric(t, tab, find(w3, MethodDataParallel), "samples_per_s") >= metric(t, tab, find(w3, "TX2-Q Only"), "samples_per_s") {
		t.Fatal("MobileNet-W3: DP must lose to single TX2-Q")
	}
	// Headline: pipeline reaches target accuracy ≥2.6× faster than DP.
	if r := metric(t, tab, find(w3, MethodDataParallel), "epoch_s") / metric(t, tab, find(w3, Method1F1B), "epoch_s"); r < 2.6 {
		t.Fatalf("MobileNet-W3 pipeline/DP speedup %.2f < 2.6", r)
	}
}

func TestFig12Shape(t *testing.T) {
	tab := figure(t, "fig12").Table
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(tab.Rows))
	}
	for i := 0; i < len(tab.Rows); i += 2 {
		pd, ours := i, i+1
		model := unquote(tab, i, "pipeline.model")
		if unquote(tab, pd, "pipeline.method") != MethodPipeDream || unquote(tab, ours, "pipeline.method") != Method1F1B {
			t.Fatalf("%s: rows %d, %d are not PipeDream then 1f1b", model, pd, ours)
		}
		if metric(t, tab, ours, "samples_per_s") <= metric(t, tab, pd, "samples_per_s") {
			t.Fatalf("%s: Eco-FL partition (%.2f) must beat PipeDream (%.2f)",
				model, metric(t, tab, ours, "samples_per_s"), metric(t, tab, pd, "samples_per_s"))
		}
		// PipeDream starves the fast device (stage 0 = TX2-N).
		if u := metric(t, tab, pd, "stage_util_0"); u > 0.5 {
			t.Fatalf("%s: PipeDream should starve TX2-N, util %.2f", model, u)
		}
		if metric(t, tab, ours, "stage_util_0") < 2*metric(t, tab, pd, "stage_util_0") {
			t.Fatalf("%s: our partition should roughly rebalance the fast stage", model)
		}
	}
}

// table2Rows indexes the Table 2 table by "<method> <mbs>x<M>".
func table2Rows(t *testing.T) (*Table, map[string]int) {
	t.Helper()
	tab := figure(t, "table2").Table
	rows := map[string]int{}
	for i := range tab.Rows {
		rows[fmt.Sprintf("%s %sx%s", unquote(tab, i, "pipeline.method"),
			tab.Value(i, "pipeline.micro_batch_size"), tab.Value(i, "pipeline.micro_batches"))] = i
	}
	return tab, rows
}

func TestTable2Shape(t *testing.T) {
	tab, rows := table2Rows(t)
	row := func(key string) int {
		i, ok := rows[key]
		if !ok {
			t.Fatalf("table2 has no row %s", key)
		}
		return i
	}
	oom := func(key string) bool { return metric(t, tab, row(key), "oom") == 1 }
	m := func(key, name string) float64 { return metric(t, tab, row(key), name) }
	if oom("gpipe 8x6") {
		t.Fatal("GPipe with M=6 must fit (Table 2)")
	}
	if !oom("gpipe 8x8") {
		t.Fatal("GPipe with M=8 must OOM (Table 2)")
	}
	if oom("1f1b 8x8") || oom("1f1b 16x16") {
		t.Fatal("1F1B-Sync must fit at mbs 8 and 16")
	}
	// Same mbs: ours uses less stage-0 memory with higher utilization.
	if m("1f1b 8x8", "peak_mem_gb_0") >= m("gpipe 8x6", "peak_mem_gb_0") {
		t.Fatalf("1F1B peak memory %.2f must undercut GPipe %.2f", m("1f1b 8x8", "peak_mem_gb_0"), m("gpipe 8x6", "peak_mem_gb_0"))
	}
	if m("1f1b 8x8", "stage_util_0") <= m("gpipe 8x6", "stage_util_0") {
		t.Fatalf("1F1B utilization %.2f must exceed GPipe %.2f", m("1f1b 8x8", "stage_util_0"), m("gpipe 8x6", "stage_util_0"))
	}
	// Raising mbs 8 → 16 raises bottleneck-stage utilization (the paper's
	// trend of larger micro-batches improving GPU efficiency).
	if m("1f1b 16x16", "stage_util_0") <= m("1f1b 8x16", "stage_util_0") {
		t.Fatal("larger micro-batches should raise stage-0 utilization")
	}
}

func TestFig13Shape(t *testing.T) {
	r := figure(t, "fig13").Metrics
	// Pre-spike equal; post-spike the scheduler recovers most throughput.
	pre, postWithout, postWith := r["samples_per_s"], r["spiked_samples_per_s"], r["recovered_samples_per_s"]
	if postWithout >= pre {
		t.Fatal("spike must degrade the static pipeline")
	}
	if postWith <= postWithout*1.2 {
		t.Fatalf("scheduler must recover substantially: %.2f vs %.2f", postWith, postWithout)
	}
	if postWith > pre {
		t.Fatal("recovery cannot exceed pre-spike throughput")
	}
	if r["migration_end_s"] <= r["migration_start_s"] {
		t.Fatal("migration window must be positive")
	}
}

// TestFigureCells pins what EXPERIMENTS.md prints for Figs. 5, 10/11, 12
// and 13, Table 2 and the two headlines Fig. 10 gives, at the precision it
// prints them: a change that moves a published cell fails here, and the
// document is corrected with it.
func TestFigureCells(t *testing.T) {
	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %s, EXPERIMENTS.md prints %s", what, got, want)
		}
	}

	tab := figure(t, "fig5").Table
	for i, want := range []string{"9.35 85/79/79% [5 3 1]", "7.66 85/84/78% [5 3 1]", "6.06 51/55/51% [3 3 1]"} {
		m := func(name string) float64 { return metric(t, tab, i, name) }
		check(fmt.Sprintf("Fig. 5 config %c", 'A'+i), fmt.Sprintf("%.2f %.0f/%.0f/%.0f%% [%g %g %g]", m("samples_per_s"),
			m("stage_util_0")*100, m("stage_util_1")*100, m("stage_util_2")*100, m("k_0"), m("k_1"), m("k_2")), want)
	}

	tab, panels := fig10Panels(t)
	for setting, want := range map[string]string{
		"effnet-b1":    "75.1 37.4 96.5 70.4%",
		"mobilenet-w2": "44.4 21.1 57.1 71.8%",
		"effnet-b4":    "23.0 6.0 37.8 86.8%",
		"mobilenet-w3": "37.1 8.7 44.6 88.5%",
	} {
		var single float64
		for method, i := range panels[setting] {
			if strings.HasSuffix(method, " Only") {
				single = max(single, metric(t, tab, i, "samples_per_s"))
			}
		}
		dp, pipe := panels[setting][MethodDataParallel], panels[setting][Method1F1B]
		check("Fig. 10 "+setting, fmt.Sprintf("%.1f %.1f %.1f %.1f%%", single, metric(t, tab, dp, "samples_per_s"),
			metric(t, tab, pipe, "samples_per_s"), metric(t, tab, dp, "transmission_share")*100), want)
	}
	w3 := panels["mobilenet-w3"]
	check("Fig. 10 MobileNet-W3 pipeline/DP speedup", f1(metric(t, tab, w3[Method1F1B], "samples_per_s")/metric(t, tab, w3[MethodDataParallel], "samples_per_s")), "5.1")
	b4 := panels["effnet-b4"]
	pipe, dp, tx2, nano := metric(t, tab, b4[Method1F1B], "samples_per_s"), metric(t, tab, b4[MethodDataParallel], "samples_per_s"),
		metric(t, tab, b4["TX2-Q Only"], "samples_per_s"), metric(t, tab, b4["Nano-H Only"], "samples_per_s")
	check("headline training time reduction (EffNet-B4@P3 vs Nano-H)", f1((1-nano/pipe)*100), "68.6")
	check("headline throughput vs DP (EffNet-B4@P3)", f1(pipe/dp), "6.3")
	check("headline throughput vs best single (EffNet-B4@P3)", f1(pipe/tx2), "1.6")

	tab = figure(t, "fig12").Table
	for i, want := range []string{"85.2 32% 88%", "155.8 92% 80%", "59.0 43% 90%", "95.2 95% 82%"} {
		check(fmt.Sprintf("Fig. 12 row %d", i), fmt.Sprintf("%.1f %s %s", metric(t, tab, i, "samples_per_s"),
			pct(metric(t, tab, i, "stage_util_0")), pct(metric(t, tab, i, "stage_util_1"))), want)
	}
	check("Fig. 12 advantage", f1(metric(t, tab, 1, "samples_per_s")/metric(t, tab, 0, "samples_per_s"))+" "+
		f1(metric(t, tab, 3, "samples_per_s")/metric(t, tab, 2, "samples_per_s")), "1.8 1.6")

	r := figure(t, "fig13").Metrics
	check("Fig. 13", fmt.Sprintf("%.1f %.1f %.0f %.1f %.1f %s %s %s", r["samples_per_s"], r["spiked_samples_per_s"], r["migration_start_s"],
		r["migration_end_s"]-r["migration_start_s"], r["recovered_samples_per_s"], pct(r["recovered_samples_per_s"]/r["spiked_samples_per_s"]-1),
		pct(r["spiked_util_1"]), pct(r["stage_util_1"])), "22.5 10.4 104 2.1 16.9 63% 97% 70%")

	tab, rows := table2Rows(t)
	for key, want := range map[string]string{
		"gpipe 8x6": "1.96 0.82 86% 84%", "gpipe 8x8": "OOM",
		"1f1b 8x8": "1.13 0.82 91% 89%", "1f1b 8x16": "1.13 0.82 96% 94%",
		"1f1b 16x8": "1.96 0.82 96% 88%", "1f1b 16x16": "1.96 0.82 98% 90%",
		"1f1b 32x8": "1.41 0.82 51% 49%", "1f1b 32x16": "1.41 0.82 51% 49%",
	} {
		i, ok := rows[key]
		if !ok {
			t.Fatalf("table2 has no row %s", key)
		}
		got := "OOM"
		if metric(t, tab, i, "oom") == 0 {
			got = fmt.Sprintf("%.2f %.2f %s %s", metric(t, tab, i, "peak_mem_gb_0"), metric(t, tab, i, "peak_mem_gb_1"),
				pct(metric(t, tab, i, "stage_util_0")), pct(metric(t, tab, i, "stage_util_1")))
		}
		check("Table 2 "+key, got, want)
	}
	check("Table 2 1F1B-Sync over GPipe stage-0 memory", pct(metric(t, tab, rows["1f1b 8x8"], "peak_mem_gb_0")/metric(t, tab, rows["gpipe 8x6"], "peak_mem_gb_0")), "58%")
}
