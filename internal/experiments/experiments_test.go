package experiments

import (
	"bytes"
	"math"
	"testing"

	"ecofl/internal/fl"
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
