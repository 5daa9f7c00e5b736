package experiments

import (
	"bytes"
	"math"
	"testing"
)

// Every test here asserts the qualitative relationship the corresponding
// paper figure reports — who wins, in which direction, where the failure
// modes appear — not absolute numbers (the substrate is a simulator).

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 configs, got %d", len(rows))
	}
	a, b, c := rows[0], rows[1], rows[2]
	// Paper Fig. 5: Config A (TX2 first, mbs 16) is best; B and C, which
	// put the memory-poor Nano first, are worse.
	if !(a.Throughput > b.Throughput && a.Throughput > c.Throughput) {
		t.Fatalf("Config A must win: A=%.2f B=%.2f C=%.2f", a.Throughput, b.Throughput, c.Throughput)
	}
	// Config C (Nano first, large mbs) is memory-throttled: K0 < P0.
	if c.Ks[0] >= c.Ps[0] {
		t.Fatalf("Config C should be memory-throttled: K=%v P=%v", c.Ks, c.Ps)
	}
	// And its utilization collapses relative to A.
	if c.StageUtil[0] >= a.StageUtil[0] {
		t.Fatal("Config C stage-0 utilization must be below Config A's")
	}
	var buf bytes.Buffer
	PrintFig5(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("printer produced nothing")
	}
}

func TestFig10Shape(t *testing.T) {
	panels, err := Fig10(2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("want 4 panels, got %d", len(panels))
	}
	find := func(p Panel, method string) MethodResult {
		for _, m := range p.Methods {
			if m.Method == method {
				return m
			}
		}
		t.Fatalf("panel %s missing method %s", p.Setting, method)
		return MethodResult{}
	}
	for _, p := range panels {
		pipe := find(p, "Eco-FL Pipeline")
		dp := find(p, "Data Parallelism")
		// Pipeline beats every other method in every panel (Figs. 10/11).
		for _, m := range p.Methods {
			if m.Method != "Eco-FL Pipeline" && m.Throughput >= pipe.Throughput {
				t.Fatalf("%s: %s (%.2f) should not beat the pipeline (%.2f)",
					p.Setting, m.Method, m.Throughput, pipe.Throughput)
			}
		}
		// DP is transmission-dominated at 100 Mbps (§6.3's 66.29% claim).
		if dp.TransmissionShare < 0.5 {
			t.Fatalf("%s: DP transmission share %.2f should dominate", p.Setting, dp.TransmissionShare)
		}
		// Curves are monotone in time and consistent with epoch time.
		if len(pipe.Curve) == 0 || math.Abs(pipe.Curve[0].Time-pipe.EpochTime) > 1e-9 {
			t.Fatalf("%s: curve must start at one epoch time", p.Setting)
		}
	}
	// Paper: on MobileNet-W3 DP is slower than a single TX2-Q.
	w3 := panels[3]
	if find(w3, "Data Parallelism").Throughput >= find(w3, "TX2-Q Only").Throughput {
		t.Fatal("MobileNet-W3: DP must lose to single TX2-Q")
	}
	// Headline: pipeline reaches target accuracy ≥2.6× faster than DP.
	if r := find(w3, "Data Parallelism").EpochTime / find(w3, "Eco-FL Pipeline").EpochTime; r < 2.6 {
		t.Fatalf("MobileNet-W3 pipeline/DP speedup %.2f < 2.6", r)
	}
}

func TestFig12Shape(t *testing.T) {
	rows, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		pd, ours := rows[i], rows[i+1]
		if ours.Throughput <= pd.Throughput {
			t.Fatalf("%s: Eco-FL partition (%.2f) must beat PipeDream (%.2f)",
				ours.Model, ours.Throughput, pd.Throughput)
		}
		// PipeDream starves the fast device (stage 0 = TX2-N).
		if pd.StageUtil[0] > 0.5 {
			t.Fatalf("%s: PipeDream should starve TX2-N, util %.2f", pd.Model, pd.StageUtil[0])
		}
		if ours.StageUtil[0] < 2*pd.StageUtil[0] {
			t.Fatalf("%s: our partition should roughly rebalance the fast stage", ours.Model)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Table2Row{}
	for _, r := range rows {
		byKey[r.Strategy+string(rune('0'+r.NumMicro/10))+string(rune('0'+r.NumMicro%10))] = r
	}
	gpipe6 := byKey["Gpipe (mbs=8)06"]
	gpipe8 := byKey["Gpipe (mbs=8)08"]
	ours8 := byKey["Ours (mbs=8)08"]
	ours16x16 := byKey["Ours (mbs=16)16"]
	if gpipe6.OOM {
		t.Fatal("GPipe with M=6 must fit (Table 2)")
	}
	if !gpipe8.OOM {
		t.Fatal("GPipe with M=8 must OOM (Table 2)")
	}
	if ours8.OOM || ours16x16.OOM {
		t.Fatal("1F1B-Sync must fit at mbs 8 and 16")
	}
	// Same mbs: ours uses less stage-0 memory with higher utilization.
	if ours8.PeakMemGB[0] >= gpipe6.PeakMemGB[0] {
		t.Fatalf("1F1B peak memory %.2f must undercut GPipe %.2f", ours8.PeakMemGB[0], gpipe6.PeakMemGB[0])
	}
	if ours8.StageUtil[0] <= gpipe6.StageUtil[0] {
		t.Fatalf("1F1B utilization %.2f must exceed GPipe %.2f", ours8.StageUtil[0], gpipe6.StageUtil[0])
	}
	// Raising mbs 8 → 16 raises bottleneck-stage utilization (the paper's
	// trend of larger micro-batches improving GPU efficiency).
	ours8x16 := byKey["Ours (mbs=8)16"]
	if ours16x16.StageUtil[0] <= ours8x16.StageUtil[0] {
		t.Fatal("larger micro-batches should raise stage-0 utilization")
	}
}

func TestFig13Shape(t *testing.T) {
	r, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-spike equal; post-spike the scheduler recovers most throughput.
	pre := r.Without.Samples[50].Throughput
	postWithout := r.Without.Samples[len(r.Without.Samples)-1].Throughput
	postWith := r.With.Samples[len(r.With.Samples)-1].Throughput
	if postWithout >= pre {
		t.Fatal("spike must degrade the static pipeline")
	}
	if postWith <= postWithout*1.2 {
		t.Fatalf("scheduler must recover substantially: %.2f vs %.2f", postWith, postWithout)
	}
	if postWith > pre {
		t.Fatal("recovery cannot exceed pre-spike throughput")
	}
	if r.With.MigrationEnd <= r.With.MigrationStart {
		t.Fatal("migration window must be positive")
	}
}

// flBands are the tail-mean accuracies (last third of the curve) of every
// (panel, strategy) of Figs. 7 and 8 and the end points of Fig. 9's λ sweep,
// measured at fb8d9de (seed 1, Quick). The runs are seeded and deterministic,
// so TestFLShapes holds each within ±0.03 absolute (±10 % for JS divergence
// and latency) beside the paper's orderings: a refactor that keeps who wins
// but moves a curve by five points fails here.
var flBands = map[string]float64{
	"cifar10/FedAvg": 0.385417, "cifar10/FedAsync": 0.336667, "cifar10/FedAT": 0.315000,
	"cifar10/Eco-FL w/o DG": 0.356111, "cifar10/Eco-FL": 0.349444,
	"fashion-mnist/FedAvg": 0.728472, "fashion-mnist/FedAsync": 0.702778, "fashion-mnist/FedAT": 0.610556,
	"fashion-mnist/Eco-FL w/o DG": 0.695556, "fashion-mnist/Eco-FL": 0.733889,
	"RLG-IID @ MNIST/Astraea": 0.974444, "RLG-IID @ MNIST/FedAT": 0.978333, "RLG-IID @ MNIST/Eco-FL": 0.981667,
	"RLG-NIID @ MNIST/Astraea": 0.957222, "RLG-NIID @ MNIST/FedAT": 0.841111, "RLG-NIID @ MNIST/Eco-FL": 0.931667,
}

// tailMeans returns each run's mean accuracy over the last third of its
// curve — robust to the oscillation that biased aggregation produces — and
// checks it against flBands.
func tailMeans(t *testing.T, set CurveSet) map[string]float64 {
	t.Helper()
	by := map[string]float64{}
	for _, r := range set.Runs {
		tail := r.Curve[len(r.Curve)*2/3:]
		var sum float64
		for _, p := range tail {
			sum += p.Accuracy
		}
		by[r.Strategy] = sum / float64(len(tail))
		want, ok := flBands[set.Dataset+"/"+r.Strategy]
		if !ok || math.Abs(by[r.Strategy]-want) > 0.03 {
			t.Errorf("%s %s: tail-mean accuracy %.4f outside ±0.03 of the measured %.4f", set.Dataset, r.Strategy, by[r.Strategy], want)
		}
	}
	return by
}

func TestFLShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("FL simulations take tens of seconds")
	}
	seed := int64(1)

	t.Run("fig7", func(t *testing.T) {
		sets := Fig7(seed, Quick)
		for _, set := range sets {
			by := tailMeans(t, set)
			// Paper Fig. 7: the grouping-based Eco-FL variants beat FedAT,
			// which is the weakest under the dynamic setting.
			if by["Eco-FL"] <= by["FedAT"]+0.02 {
				t.Fatalf("%s: Eco-FL (%.3f) must beat FedAT (%.3f)",
					set.Dataset, by["Eco-FL"], by["FedAT"])
			}
			if by["Eco-FL w/o DG"] <= by["FedAT"] {
				t.Fatalf("%s: even without DG the grouping must beat FedAT", set.Dataset)
			}
			if by["Eco-FL"] <= by["FedAsync"]-0.03 {
				t.Fatalf("%s: Eco-FL (%.3f) must not lose to FedAsync (%.3f)",
					set.Dataset, by["Eco-FL"], by["FedAsync"])
			}
		}
	})

	t.Run("fig8", func(t *testing.T) {
		sets := Fig8(seed, Quick)
		means := map[string]map[string]float64{}
		for _, set := range sets {
			means[set.Dataset] = tailMeans(t, set)
		}
		iid, niid := sets[0].Dataset, sets[1].Dataset
		get := func(panel, name string) float64 {
			v, ok := means[panel][name]
			if !ok {
				t.Fatalf("%s: missing %s", panel, name)
			}
			return v
		}
		// RLG-IID: everyone is fine (≥0.9).
		for _, name := range []string{"Astraea", "FedAT", "Eco-FL"} {
			if get(iid, name) < 0.9 {
				t.Fatalf("RLG-IID %s accuracy %.3f < 0.9", name, get(iid, name))
			}
		}
		// RLG-NIID: FedAT degrades badly; Eco-FL and Astraea stay high.
		if get(niid, "Eco-FL") < get(niid, "FedAT")+0.05 {
			t.Fatalf("RLG-NIID: Eco-FL (%.3f) must beat FedAT (%.3f) by a wide margin",
				get(niid, "Eco-FL"), get(niid, "FedAT"))
		}
		if get(niid, "Astraea") < 0.9 {
			t.Fatal("RLG-NIID: Astraea's balanced grouping should stay accurate")
		}
	})

	t.Run("fig9", func(t *testing.T) {
		rows := Fig9(seed, Quick)
		first, last := rows[0], rows[len(rows)-1]
		if last.AvgJS >= first.AvgJS {
			t.Fatalf("JS divergence must fall with λ: %.3f → %.3f", first.AvgJS, last.AvgJS)
		}
		if last.AvgLatency <= first.AvgLatency {
			t.Fatalf("group latency must rise with λ: %.2f → %.2f", first.AvgLatency, last.AvgLatency)
		}
		var bestMid float64
		for _, r := range rows[1:] {
			if r.BestAcc > bestMid {
				bestMid = r.BestAcc
			}
		}
		if bestMid <= first.BestAcc {
			t.Fatal("some λ > 0 must improve accuracy over λ = 0")
		}
		// The sweep's end points, measured at fb8d9de (see flBands).
		for _, c := range []struct {
			row              Fig9Row
			js, latency, acc float64
		}{
			{first, 0.396977, 31.470157, 0.855556},
			{last, 0.006671, 46.840952, 0.966667},
		} {
			if math.Abs(c.row.AvgJS-c.js) > 0.1*c.js || math.Abs(c.row.AvgLatency-c.latency) > 0.1*c.latency {
				t.Errorf("λ=%g: JS %.6f / latency %.4f outside ±10%% of the measured %.6f / %.4f",
					c.row.Lambda, c.row.AvgJS, c.row.AvgLatency, c.js, c.latency)
			}
			if math.Abs(c.row.BestAcc-c.acc) > 0.03 {
				t.Errorf("λ=%g: best accuracy %.4f outside ±0.03 of the measured %.4f", c.row.Lambda, c.row.BestAcc, c.acc)
			}
		}
	})
}

func TestHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs FL simulations")
	}
	h, err := ComputeHeadlines(1, Quick)
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
	curve := []CurvePointLike{{0, 0}, {10, 1}}
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
