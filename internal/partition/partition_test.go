package partition

import (
	"math"
	"testing"

	"ecofl/internal/device"
	"ecofl/internal/model"
	"ecofl/internal/pipeline"
)

func big(name string, rate float64) *device.Device {
	return &device.Device{Name: name, ComputeRate: rate, MemoryBytes: 1 << 40, LinkBandwidth: device.Bandwidth100Mbps, LoadFactor: 1}
}

func planFLOPs(spec *model.Spec, p *Plan) []float64 {
	out := make([]float64, len(p.Stages))
	for i, st := range p.Stages {
		out[i] = spec.SegmentFwdFLOPs(st.From, st.To)
	}
	return out
}

func TestPlanTilesModel(t *testing.T) {
	spec := model.EfficientNet(1)
	devs := []*device.Device{big("a", 100e9), big("b", 200e9), big("c", 150e9)}
	plan, err := DynamicProgramming(spec, devs)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, st := range plan.Stages {
		if st.From != next || st.To <= st.From {
			t.Fatalf("stage %d [%d,%d) does not tile", i, st.From, st.To)
		}
		next = st.To
	}
	if next != spec.NumLayers() {
		t.Fatalf("stages cover %d of %d layers", next, spec.NumLayers())
	}
	if len(Cuts(plan.Stages)) != 2 {
		t.Fatalf("3 stages must have 2 cuts, got %v", Cuts(plan.Stages))
	}
}

func TestHomogeneousSplitIsBalanced(t *testing.T) {
	spec := model.EfficientNet(1)
	devs := []*device.Device{big("a", 100e9), big("b", 100e9)}
	plan, err := DynamicProgramming(spec, devs)
	if err != nil {
		t.Fatal(err)
	}
	fl := planFLOPs(spec, plan)
	ratio := fl[0] / fl[1]
	if ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("homogeneous devices should get similar FLOPs, ratio %v", ratio)
	}
}

func TestHeterogeneousGivesFasterDeviceMoreWork(t *testing.T) {
	spec := model.EfficientNet(1)
	fast, slow := big("fast", 400e9), big("slow", 100e9)
	plan, err := DynamicProgramming(spec, []*device.Device{fast, slow})
	if err != nil {
		t.Fatal(err)
	}
	fl := planFLOPs(spec, plan)
	if fl[0] <= fl[1] {
		t.Fatalf("4× faster first device should receive more FLOPs: %v", fl)
	}
	// Stage times should be within ~2× of each other (balanced-ish).
	t0 := fl[0] / fast.ComputeRate
	t1 := fl[1] / slow.ComputeRate
	if r := math.Max(t0, t1) / math.Min(t0, t1); r > 2 {
		t.Fatalf("stage time imbalance %v too large", r)
	}
}

func TestDPBeatsUniformOnHeterogeneousDevices(t *testing.T) {
	// The Fig. 12 comparison: PipeDream's uniform split starves the fast
	// device; Eco-FL's heterogeneity-aware DP yields a lower lagger time
	// and higher pipeline throughput.
	for _, spec := range []*model.Spec{model.EfficientNet(1), model.MobileNetV2(2)} {
		devs := []*device.Device{device.TX2N(), device.NanoH()}
		devs[0].MemoryBytes = 1 << 40 // isolate partition quality from memory
		devs[1].MemoryBytes = 1 << 40
		ours, err := DynamicProgramming(spec, devs)
		if err != nil {
			t.Fatal(err)
		}
		uniform, err := PipeDreamUniform(spec, devs)
		if err != nil {
			t.Fatal(err)
		}
		if ours.LaggerTime > uniform.LaggerTime+1e-12 {
			t.Fatalf("%s: DP lagger %v should not exceed uniform %v", spec.Name, ours.LaggerTime, uniform.LaggerTime)
		}
		mk := func(p *Plan) float64 {
			cfg := &pipeline.Config{Spec: spec, Stages: p.Stages, MicroBatchSize: 8, NumMicroBatches: 8}
			res, err := pipeline.Schedule(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Throughput
		}
		if mk(ours) <= mk(uniform) {
			t.Fatalf("%s: heterogeneity-aware partition must beat uniform split", spec.Name)
		}
	}
}

func TestUniformBaselineBalancesFLOPsNotTime(t *testing.T) {
	spec := model.EfficientNet(1)
	devs := []*device.Device{big("fast", 400e9), big("slow", 100e9)}
	plan, err := PipeDreamUniform(spec, devs)
	if err != nil {
		t.Fatal(err)
	}
	fl := planFLOPs(spec, plan)
	if r := fl[0] / fl[1]; r < 0.5 || r > 2 {
		t.Fatalf("uniform baseline should balance FLOPs regardless of rates: %v", fl)
	}
}

func TestDeviceCountExceedsLayersErrors(t *testing.T) {
	spec := &model.Spec{Name: "tiny", InputBytes: 8,
		Layers: []model.LayerCost{{FwdFLOPs: 1, ActivationBytes: 8, GradientBytes: 8, ResidentBytes: 8, ParamBytes: 8}}}
	if _, err := DynamicProgramming(spec, []*device.Device{big("a", 1e9), big("b", 1e9)}); err == nil {
		t.Fatal("2 devices on a 1-layer model must error")
	}
	if _, err := DynamicProgramming(spec, nil); err == nil {
		t.Fatal("no devices must error")
	}
}

func TestOrchestrateFindsDDBFreeConfig(t *testing.T) {
	spec := model.EfficientNet(1)
	devs := []*device.Device{device.TX2Q(), device.NanoH(), device.NanoH()}
	o, err := Orchestrate(spec, devs, Options{NumMicroBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !o.SatisfiesP {
		t.Fatalf("orchestration should find a DDB-free config, got mbs %d Ks %v Ps %v",
			o.MicroBatchSize, o.Result.Ks, o.Result.Ps)
	}
	if o.Result.Throughput <= 0 {
		t.Fatal("positive throughput expected")
	}
}

func TestOrchestrateReducesMicroBatchUnderMemoryPressure(t *testing.T) {
	spec := model.EfficientNet(4) // big activations
	tight := func() *device.Device {
		d := device.NanoH()
		d.MemoryBytes = int64(1.1e9)
		return d
	}
	devs := []*device.Device{tight(), tight(), tight()}
	o, err := Orchestrate(spec, devs, Options{NumMicroBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if o.MicroBatchSize >= 32 {
		t.Fatalf("tight memory should force a smaller micro-batch, got %d", o.MicroBatchSize)
	}
}

func TestOrchestrateOrderMatters(t *testing.T) {
	// With front-loaded activations, putting the large-memory device first
	// should win; the search must consider it (Fig. 5).
	spec := model.EfficientNet(2)
	tx2 := device.TX2Q()
	nano1, nano2 := device.NanoH(), device.NanoH()
	o, err := Orchestrate(spec, []*device.Device{nano1, tx2, nano2}, Options{NumMicroBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Orchestrate(spec, []*device.Device{nano1, tx2, nano2}, Options{NumMicroBatches: 8, FixedOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.Result.Throughput < fixed.Result.Throughput-1e-9 {
		t.Fatalf("order search (%v) must not lose to fixed order (%v)", o.Result.Throughput, fixed.Result.Throughput)
	}
}

func TestOrchestrateDeterminism(t *testing.T) {
	spec := model.MobileNetV2(2)
	devs := []*device.Device{device.TX2N(), device.NanoH()}
	a, err := Orchestrate(spec, devs, Options{NumMicroBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Orchestrate(spec, devs, Options{NumMicroBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.MicroBatchSize != b.MicroBatchSize || a.Result.Throughput != b.Result.Throughput {
		t.Fatal("orchestration must be deterministic")
	}
}

func TestPermutationsCount(t *testing.T) {
	devs := []*device.Device{big("a", 1), big("b", 1), big("c", 1), big("d", 1)}
	perms := permutations(devs)
	if len(perms) != 24 {
		t.Fatalf("4! = 24 permutations, got %d", len(perms))
	}
	seen := map[string]bool{}
	for _, p := range perms {
		key := ""
		for _, d := range p {
			key += d.Name
		}
		if seen[key] {
			t.Fatalf("duplicate permutation %s", key)
		}
		seen[key] = true
	}
}

func TestAssignmentExpandsAndValidates(t *testing.T) {
	spec := model.EfficientNet(1)
	devs := []*device.Device{big("a", 300e9), big("b", 150e9), big("c", 100e9)}
	plan, err := DynamicProgramming(spec, devs)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := Assignment(plan.Stages, spec.NumLayers())
	if err != nil {
		t.Fatal(err)
	}
	if len(owner) != spec.NumLayers() {
		t.Fatalf("assignment covers %d of %d layers", len(owner), spec.NumLayers())
	}
	for l, s := range owner {
		st := plan.Stages[s]
		if l < st.From || l >= st.To {
			t.Fatalf("layer %d assigned to stage %d covering [%d,%d)", l, s, st.From, st.To)
		}
	}
	// Hostile layouts: a gap, an overlap, and a short cover must be rejected.
	gap := []pipeline.Stage{{From: 0, To: 2}, {From: 3, To: spec.NumLayers()}}
	if _, err := Assignment(gap, spec.NumLayers()); err == nil {
		t.Fatal("gapped layout accepted")
	}
	overlap := []pipeline.Stage{{From: 0, To: 3}, {From: 2, To: spec.NumLayers()}}
	if _, err := Assignment(overlap, spec.NumLayers()); err == nil {
		t.Fatal("overlapping layout accepted")
	}
	short := []pipeline.Stage{{From: 0, To: spec.NumLayers() - 1}}
	if _, err := Assignment(short, spec.NumLayers()); err == nil {
		t.Fatal("short cover accepted")
	}
	empty := []pipeline.Stage{{From: 0, To: 0}, {From: 0, To: spec.NumLayers()}}
	if _, err := Assignment(empty, spec.NumLayers()); err == nil {
		t.Fatal("empty stage accepted")
	}
}
