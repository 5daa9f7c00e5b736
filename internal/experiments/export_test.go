package experiments

import "testing"

func TestTable2ToSeriesHandlesOOM(t *testing.T) {
	series := Table2ToSeries([]Table2Row{
		{Strategy: "Gpipe", MicroBatchSize: 8, NumMicro: 8, OOM: true},
		{Strategy: "Ours", MicroBatchSize: 8, NumMicro: 8, PeakMemGB: []float64{1.1, 0.8}, StageUtil: []float64{0.9, 0.85}},
	})
	s := series[0]
	if s.Len() != 2 {
		t.Fatalf("rows %d", s.Len())
	}
	oom, _ := s.Col("oom")
	if oom[0] != 1 || oom[1] != 0 {
		t.Fatalf("oom flags %v", oom)
	}
	mem, _ := s.Col("mem_s0_gb")
	if mem[1] != 1.1 {
		t.Fatalf("mem %v", mem)
	}
}

func TestSlug(t *testing.T) {
	if got := slug("fig10", "EfficientNet-B4 @ Pipeline-3", "Eco-FL Pipeline"); got != "fig10_efficientnet-b4-pipeline-3_eco-fl-pipeline" {
		t.Fatalf("slug = %q", got)
	}
}
