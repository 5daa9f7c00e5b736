package pipeline

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"ecofl/internal/device"
	"ecofl/internal/model"
)

// uniformSpec builds a spec with n identical layers, each flops FLOPs and
// act bytes of activation/gradient at each cut.
func uniformSpec(n int, flops, act float64) *model.Spec {
	s := &model.Spec{Name: "uniform", InputBytes: act}
	for i := 0; i < n; i++ {
		s.Layers = append(s.Layers, model.LayerCost{
			Name:            "l",
			FwdFLOPs:        flops,
			ActivationBytes: act,
			GradientBytes:   act,
			ResidentBytes:   act,
			ParamBytes:      1e6,
		})
	}
	return s
}

// bigDevice has effectively unlimited memory so residency is never capped.
func bigDevice(name string, rate float64) *device.Device {
	return &device.Device{Name: name, ComputeRate: rate, MemoryBytes: 1 << 40, LinkBandwidth: device.Bandwidth100Mbps, LoadFactor: 1}
}

func balancedConfig(stages, m int, strategy Strategy) *Config {
	spec := uniformSpec(stages, 1e9, 1e5)
	cfg := &Config{Spec: spec, MicroBatchSize: 8, NumMicroBatches: m, Strategy: strategy}
	for s := 0; s < stages; s++ {
		cfg.Stages = append(cfg.Stages, Stage{Device: bigDevice("d", 100e9), From: s, To: s + 1})
	}
	return cfg
}

func TestValidate(t *testing.T) {
	cfg := balancedConfig(3, 6, OneFOneBSync)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := balancedConfig(3, 6, OneFOneBSync)
	bad.Stages[1].From = 2 // gap
	if err := bad.Validate(); err == nil {
		t.Fatal("gap in stage ranges must be rejected")
	}
	bad2 := balancedConfig(3, 6, OneFOneBSync)
	bad2.MicroBatchSize = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero micro-batch size must be rejected")
	}
}

// TestScheduleRefusesBadRates: a stage whose effective rate is NaN,
// infinite or not positive stops Schedule with an error instead of reaching
// the residency rule (a NaN load factor used to make K_s MinInt64 there).
func TestScheduleRefusesBadRates(t *testing.T) {
	for _, c := range []struct {
		name       string
		rate, load float64
	}{
		{"nan load", 100e9, math.NaN()},
		{"inf load", 100e9, math.Inf(1)},
		{"nan rate", math.NaN(), 1},
		{"inf rate", math.Inf(1), 1},
		{"zero rate", 0, 1},
		{"negative rate", -100e9, 1},
	} {
		cfg := balancedConfig(3, 6, OneFOneBSync)
		cfg.Stages[1].Device = bigDevice("d", c.rate)
		cfg.Stages[1].Device.LoadFactor = c.load
		if _, err := Schedule(cfg); err == nil || !strings.Contains(err.Error(), "effective rate") {
			t.Errorf("%s: Schedule = %v, want an effective-rate error", c.name, err)
		}
	}
}

// TestResidencyPRules pins Eq. 3 and its failure modes: a row with no want
// must be an error, never an integer.
func TestResidencyPRules(t *testing.T) {
	for _, c := range []struct {
		name  string
		times []StageTimes
		want  []int
	}{
		// Negligible comm: P_s = S − s.
		{"no comm", []StageTimes{{Tf: 1, Tb: 2}, {Tf: 1, Tb: 2}, {Tf: 1, Tb: 2}}, []int{3, 2, 1}},
		// Comm equal to compute: P_s = 2(S−s) − 1 (paper §4.3).
		{"comm equal to compute", []StageTimes{
			{Tf: 1, Tb: 2, CommF: 1.5, CommB: 1.5},
			{Tf: 1, Tb: 2, CommF: 1.5, CommB: 1.5},
			{Tf: 1, Tb: 2},
		}, []int{5, 3, 1}},
		{"one stage", []StageTimes{{Tf: 1, Tb: 1}}, []int{1}},
		// A stage with no compute time once sized stage 0 at math.MinInt64.
		{"zero compute", []StageTimes{{1, 1, 1, 1}, {}, {1, 1, 0, 0}}, nil},
		{"zero compute first", []StageTimes{{}, {1, 1, 0, 0}}, nil},
		{"nan compute", []StageTimes{{1, 1, 0, 0}, {math.NaN(), 1, 0, 0}}, nil},
		{"inf compute", []StageTimes{{1, 1, 0, 0}, {math.Inf(1), 1, 0, 0}}, nil},
		{"negative compute", []StageTimes{{1, 1, 0, 0}, {-1, 3, 0, 0}}, nil},
		{"nan comm", []StageTimes{{1, 1, math.NaN(), 0}, {1, 1, 0, 0}}, nil},
		{"inf comm", []StageTimes{{1, 1, 0, math.Inf(1)}, {1, 1, 0, 0}}, nil},
		{"negative comm", []StageTimes{{1, 1, -1, 0}, {1, 1, 0, 0}}, nil},
		{"overflow", []StageTimes{{1, 1, 1e300, 0}, {1e-300, 0, 0, 0}}, nil},
		{"no stages", nil, nil},
	} {
		p, err := ResidencyP(c.times)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: ResidencyP = %v, want an error", c.name, p)
			}
			continue
		}
		if err != nil || !slices.Equal(p, c.want) {
			t.Errorf("%s: ResidencyP = %v, %v; want %v", c.name, p, err, c.want)
		}
	}
}

func TestScheduleShape1F1BSync(t *testing.T) {
	cfg := balancedConfig(3, 8, OneFOneBSync)
	res, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every micro-batch has exactly one F and one B per stage.
	countF := map[[2]int]int{}
	countB := map[[2]int]int{}
	for _, task := range res.Tasks {
		switch task.Kind {
		case TaskForward:
			countF[[2]int{task.Stage, task.Micro}]++
		case TaskBackward:
			countB[[2]int{task.Stage, task.Micro}]++
		}
	}
	for s := 0; s < 3; s++ {
		for m := 0; m < 8; m++ {
			if countF[[2]int{s, m}] != 1 || countB[[2]int{s, m}] != 1 {
				t.Fatalf("stage %d micro %d: F=%d B=%d", s, m, countF[[2]int{s, m}], countB[[2]int{s, m}])
			}
		}
	}
	// Last stage runs B(m) immediately after F(m) (1F1B property).
	var lastF, lastB []float64
	for _, task := range res.Tasks {
		if task.Stage == 2 {
			if task.Kind == TaskForward {
				lastF = append(lastF, task.End)
			}
			if task.Kind == TaskBackward {
				lastB = append(lastB, task.Start)
			}
		}
	}
	for m := range lastF {
		if math.Abs(lastB[m]-lastF[m]) > 1e-9 {
			t.Fatalf("last stage must run backward right after forward: F end %v, B start %v", lastF[m], lastB[m])
		}
	}
}

func TestCausalityInvariant(t *testing.T) {
	for _, strategy := range []Strategy{OneFOneBSync, GPipeBAF} {
		cfg := balancedConfig(4, 8, strategy)
		res, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		endF := map[[2]int]float64{}
		endB := map[[2]int]float64{}
		for _, task := range res.Tasks {
			switch task.Kind {
			case TaskForward:
				endF[[2]int{task.Stage, task.Micro}] = task.End
			case TaskBackward:
				endB[[2]int{task.Stage, task.Micro}] = task.End
			}
		}
		for _, task := range res.Tasks {
			key := [2]int{task.Stage - 1, task.Micro}
			switch task.Kind {
			case TaskForward:
				if task.Stage > 0 && task.Start < endF[key]-1e-9 {
					t.Fatalf("%v: F(%d,%d) starts before upstream F ends", strategy, task.Stage, task.Micro)
				}
			case TaskBackward:
				down := [2]int{task.Stage + 1, task.Micro}
				if task.Stage < 3 && task.Start < endB[down]-1e-9 {
					t.Fatalf("%v: B(%d,%d) starts before downstream B ends", strategy, task.Stage, task.Micro)
				}
			}
		}
	}
}

func TestSSBMatchesEq2(t *testing.T) {
	cfg := balancedConfig(3, 8, OneFOneBSync)
	res, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	times := cfg.Times()
	want := times[0].Total() + times[1].Total()
	if math.Abs(res.SSB[0]-want) > 1e-9 {
		t.Fatalf("SSB = %v, want Eq.2 value %v", res.SSB[0], want)
	}
	// In a balanced DDB-free pipeline, observed idle ≈ SSB, so DDB ≈ 0.
	for s, ddb := range res.DDB {
		if ddb > 0.05*res.RoundTime {
			t.Fatalf("stage %d DDB %v unexpectedly large in balanced pipeline", s, ddb)
		}
	}
}

func TestMoreMicroBatchesAmortizeSSB(t *testing.T) {
	lowM, err := Schedule(balancedConfig(3, 4, OneFOneBSync))
	if err != nil {
		t.Fatal(err)
	}
	highM, err := Schedule(balancedConfig(3, 16, OneFOneBSync))
	if err != nil {
		t.Fatal(err)
	}
	if highM.Throughput <= lowM.Throughput {
		t.Fatalf("injecting more micro-batches must amortize SSB: %v vs %v", lowM.Throughput, highM.Throughput)
	}
	if highM.StageUtil[0] <= lowM.StageUtil[0] {
		t.Fatal("utilization should rise with M")
	}
}

func TestGPipeHoldsAllActivations(t *testing.T) {
	g, err := Schedule(balancedConfig(2, 6, GPipeBAF))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Schedule(balancedConfig(2, 6, OneFOneBSync))
	if err != nil {
		t.Fatal(err)
	}
	if g.PeakMemoryBytes[0] <= f.PeakMemoryBytes[0] {
		t.Fatalf("GPipe peak memory (%v) must exceed 1F1B (%v)", g.PeakMemoryBytes[0], f.PeakMemoryBytes[0])
	}
}

func TestOneFOneBMemoryIndependentOfM(t *testing.T) {
	a, err := Schedule(balancedConfig(3, 8, OneFOneBSync))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(balancedConfig(3, 16, OneFOneBSync))
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.PeakMemoryBytes {
		if math.Abs(a.PeakMemoryBytes[s]-b.PeakMemoryBytes[s]) > 1 {
			t.Fatalf("1F1B peak memory must not grow with M: stage %d %v vs %v",
				s, a.PeakMemoryBytes[s], b.PeakMemoryBytes[s])
		}
	}
}

func TestGPipeOOMWhen1F1BFits(t *testing.T) {
	// Device fits ~4 resident micro-batches; GPipe needs all 8.
	spec := uniformSpec(2, 1e9, 50e6)
	dev := &device.Device{Name: "small", ComputeRate: 100e9,
		MemoryBytes: int64(BaseOverheadBytes + 3*1e6*2 + 4.4*50e6*8), LinkBandwidth: device.Bandwidth100Mbps, LoadFactor: 1}
	mk := func(st Strategy) *Config {
		return &Config{Spec: spec, MicroBatchSize: 8, NumMicroBatches: 8, Strategy: st,
			Stages: []Stage{{Device: dev, From: 0, To: 1}, {Device: dev.Clone(), From: 1, To: 2}}}
	}
	if _, err := Schedule(mk(GPipeBAF)); !errors.Is(err, ErrOOM) {
		t.Fatalf("GPipe should OOM, got %v", err)
	}
	if _, err := Schedule(mk(OneFOneBSync)); err != nil {
		t.Fatalf("1F1B should fit by throttling residency: %v", err)
	}
}

func TestDDBWhenMemoryThrottles(t *testing.T) {
	// Same pipeline; one run with ample memory (K=P), one with stage-0
	// memory capped to K=1. The capped run must show DDB and lower
	// throughput — the Fig. 4/5 phenomenon.
	spec := uniformSpec(3, 1e9, 20e6)
	ample := func() []Stage {
		return []Stage{
			{Device: bigDevice("d0", 100e9), From: 0, To: 1},
			{Device: bigDevice("d1", 100e9), From: 1, To: 2},
			{Device: bigDevice("d2", 100e9), From: 2, To: 3},
		}
	}
	free, err := Schedule(&Config{Spec: spec, Stages: ample(), MicroBatchSize: 8, NumMicroBatches: 8, Strategy: OneFOneBSync})
	if err != nil {
		t.Fatal(err)
	}
	capped := ample()
	capped[0].Device = &device.Device{Name: "tiny", ComputeRate: 100e9,
		MemoryBytes: int64(BaseOverheadBytes + 3e6*3 + 1.5*20e6*8), LinkBandwidth: device.Bandwidth100Mbps, LoadFactor: 1}
	throttled, err := Schedule(&Config{Spec: spec, Stages: capped, MicroBatchSize: 8, NumMicroBatches: 8, Strategy: OneFOneBSync})
	if err != nil {
		t.Fatal(err)
	}
	if throttled.Ks[0] >= free.Ks[0] {
		t.Fatalf("memory cap should reduce K0: %v vs %v", throttled.Ks, free.Ks)
	}
	if throttled.Throughput >= free.Throughput {
		t.Fatalf("throttled pipeline must be slower: %v vs %v", throttled.Throughput, free.Throughput)
	}
	var ddbT, ddbF float64
	for s := range throttled.DDB {
		ddbT += throttled.DDB[s]
		ddbF += free.DDB[s]
	}
	if ddbT <= ddbF {
		t.Fatalf("throttling must introduce DDB: %v vs %v", ddbT, ddbF)
	}
}

func TestKsClampedNonIncreasing(t *testing.T) {
	spec := uniformSpec(3, 1e9, 20e6)
	stages := []Stage{
		{Device: &device.Device{Name: "tiny", ComputeRate: 100e9,
			MemoryBytes: int64(BaseOverheadBytes + 3e6*3 + 1.5*20e6*8), LinkBandwidth: device.Bandwidth100Mbps, LoadFactor: 1}, From: 0, To: 1},
		{Device: bigDevice("d1", 100e9), From: 1, To: 2},
		{Device: bigDevice("d2", 100e9), From: 2, To: 3},
	}
	res, err := Schedule(&Config{Spec: spec, Stages: stages, MicroBatchSize: 8, NumMicroBatches: 8, Strategy: OneFOneBSync})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < len(res.Ks); s++ {
		if res.Ks[s] > res.Ks[s-1] {
			t.Fatalf("Ks must be non-increasing, got %v", res.Ks)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Schedule(balancedConfig(3, 8, OneFOneBSync))
	b, _ := Schedule(balancedConfig(3, 8, OneFOneBSync))
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("task counts differ")
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
}

func TestRenderGantt(t *testing.T) {
	res, _ := Schedule(balancedConfig(3, 6, OneFOneBSync))
	g := res.RenderGantt(100)
	if !strings.Contains(g, "stage 0") || !strings.Contains(g, "stage 2") {
		t.Fatal("gantt must include all stages")
	}
	if !strings.Contains(g, "0") || !strings.Contains(g, "a") {
		t.Fatal("gantt must show forward (digits) and backward (letters) tasks")
	}
}

// ------------------------------------------------------------- baselines

func TestSingleDevice(t *testing.T) {
	spec := model.EfficientNet(1)
	res, err := SingleDevice(spec, device.TX2N(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.BatchTime <= 0 {
		t.Fatal("positive throughput expected")
	}
	slow, err := SingleDevice(spec, device.NanoL(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Throughput >= res.Throughput {
		t.Fatal("Nano-L must be slower than TX2-N")
	}
	// Huge batch must OOM on a Nano.
	if _, err := SingleDevice(model.EfficientNet(6), device.NanoL(), 512); !errors.Is(err, ErrOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
}

func TestDataParallelTransmissionDominates(t *testing.T) {
	spec := model.MobileNetV2(3)
	devs := []*device.Device{device.TX2Q(), device.NanoH(), device.NanoH()}
	dp, err := DataParallel(spec, devs, 48)
	if err != nil {
		t.Fatal(err)
	}
	if dp.TransmissionShare < 0.5 {
		t.Fatalf("on MobileNet-W3 at 100 Mbps, gradient sync should dominate (§6.3): share %v", dp.TransmissionShare)
	}
	// The paper: DP on MobileNet-W3 is slower than a single TX2-Q.
	single, err := SingleDevice(spec, device.TX2Q(), 48)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Throughput >= single.Throughput {
		t.Fatalf("DP should lose to single device here: DP %v vs single %v", dp.Throughput, single.Throughput)
	}
}

func TestDataParallelSplitsByRate(t *testing.T) {
	spec := model.EfficientNet(1)
	dp, err := DataParallel(spec, []*device.Device{device.TX2N(), device.NanoL()}, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Proportional split means compute finishes simultaneously: compute
	// time should equal a rate-weighted share, less than giving NanoL half.
	naive := 16 * spec.TotalFwdFLOPs() * 3 / device.NanoL().ComputeRate
	if dp.ComputeTime >= naive {
		t.Fatal("rate-proportional split must beat an even split")
	}
}

func TestPipeDreamAsyncMemoryIncludesVersions(t *testing.T) {
	syncRes, err := Schedule(balancedConfig(3, 8, OneFOneBSync))
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := Schedule(balancedConfig(3, 8, PipeDreamAsync))
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 must pay for S−1 = 2 extra weight versions.
	if asyncRes.PeakMemoryBytes[0] <= syncRes.PeakMemoryBytes[0] {
		t.Fatal("PipeDream stage 0 must store extra weight versions")
	}
	// Last stage stores no extra versions.
	if math.Abs(asyncRes.PeakMemoryBytes[2]-syncRes.PeakMemoryBytes[2]) > 1 {
		t.Fatal("last stage should match 1F1B-Sync memory")
	}
}
