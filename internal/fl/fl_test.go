package fl

import (
	"math"
	"math/rand"
	"testing"

	"ecofl/internal/data"
	"ecofl/internal/stats"
)

// testPopulation builds a small, fast population: n clients over an easy
// synthetic dataset with the paper's 2-class non-IID partitioning.
func testPopulation(seed int64, n int, cfg Config) *Population {
	rng := rand.New(rand.NewSource(seed))
	ds := data.MNISTLike(rng, 40*n)
	train, test := ds.Split(0.85)
	_ = train
	shards := data.PartitionByClasses(rng, ds, n, 2)
	tx, ty := test.Materialize()
	return NewPopulation(rng, shards, tx, ty, cfg)
}

// runStrategy runs one row of the strategy table by its key.
func runStrategy(t *testing.T, pop *Population, name string) *RunResult {
	t.Helper()
	r, err := RunByName(pop, name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fastConfig() Config {
	return Config{
		Seed:          1,
		MaxConcurrent: 10,
		LocalEpochs:   2,
		BatchSize:     10,
		LR:            0.05,
		Mu:            0.05,
		Alpha:         0.4,
		NumGroups:     4,
		RTThreshold:   15,
		Duration:      800,
		EvalInterval:  60,
		MeanDelay:     40,
		StdDelay:      12,
	}
}

func TestClientLatencyModel(t *testing.T) {
	c := &Client{BaseDelay: 50, CollabDegree: 0.4}
	if c.Latency() != 20 {
		t.Fatalf("latency = base × degree: got %v", c.Latency())
	}
	rng := rand.New(rand.NewSource(1))
	changed := false
	for i := 0; i < 100; i++ {
		if c.MaybeRedraw(rng, 0.5) {
			changed = true
			found := false
			for _, d := range CollabDegrees {
				if c.CollabDegree == d {
					found = true
				}
			}
			if !found {
				t.Fatalf("redraw produced degree %v outside the paper's set", c.CollabDegree)
			}
		}
	}
	if !changed {
		t.Fatal("p=0.5 over 100 trials must redraw at least once")
	}
	if c.MaybeRedraw(rng, 0) {
		t.Fatal("p=0 must never redraw")
	}
}

// TestMeasuredLatencyDrivesGrouping checks the telemetry hook: measured
// per-client latencies installed via ApplyMeasuredLatencies replace the
// configured BaseDelay × CollabDegree model everywhere grouping looks.
func TestMeasuredLatencyDrivesGrouping(t *testing.T) {
	pop := testPopulation(9, 16, fastConfig())
	meas := map[int]float64{}
	for _, c := range pop.Clients {
		meas[c.ID] = 30 // uniform fleet...
	}
	outlier := pop.Clients[0]
	meas[outlier.ID] = 300 // ...except one measured straggler
	if n := pop.ApplyMeasuredLatencies(meas); n != len(pop.Clients) {
		t.Fatalf("applied %d measurements, want %d", n, len(pop.Clients))
	}
	if outlier.Latency() != 300 {
		t.Fatalf("measured latency must win: got %v", outlier.Latency())
	}

	gr := &Grouper{Lambda: 0, RT: 15, NumClasses: pop.TestClasses()}
	groups := gr.InitialGrouping(rand.New(rand.NewSource(3)), pop.Clients, 3)
	for _, g := range groups {
		hasOutlier, others := false, 0
		for _, m := range g.Members {
			if m == outlier {
				hasOutlier = true
			} else {
				others++
			}
		}
		if hasOutlier && others > 0 {
			t.Fatal("a 10× measured straggler must not share a group with the uniform fleet")
		}
	}

	// Algorithm 1 regrouping reacts to a measurement change mid-run: a
	// member whose measured latency spikes beyond RT gets moved or dropped.
	uniform := groups[0]
	for _, g := range groups {
		if len(g.Members) > len(uniform.Members) {
			uniform = g
		}
	}
	victim := uniform.Members[0]
	victim.MeasuredLatency = 500
	if gr.CheckAndRegroup(uniform, groups) == 0 {
		t.Fatal("regrouping must react to a measured latency spike")
	}
	for _, m := range uniform.Members {
		if m == victim {
			t.Fatal("spiked client must leave its group")
		}
	}

	// Clearing the measurement falls back to the configured model, and
	// invalid/unknown measurements are ignored.
	victim.MeasuredLatency = 0
	if victim.Latency() != victim.BaseDelay*victim.CollabDegree {
		t.Fatalf("cleared measurement must restore the model: %v", victim.Latency())
	}
	if n := pop.ApplyMeasuredLatencies(map[int]float64{pop.Clients[1].ID: -1, 1 << 20: 5}); n != 0 {
		t.Fatalf("invalid measurements applied: %d", n)
	}
}

func TestPopulationConstruction(t *testing.T) {
	pop := testPopulation(7, 20, fastConfig())
	if len(pop.Clients) != 20 {
		t.Fatalf("got %d clients", len(pop.Clients))
	}
	for _, c := range pop.Clients {
		if c.BaseDelay <= 0 {
			t.Fatal("base delay must be positive (clipped)")
		}
		if c.Train.Len() == 0 {
			t.Fatal("every client needs data")
		}
		if len(c.Train.LabelCounts()) != 10 {
			t.Fatal("distribution over 10 classes expected")
		}
	}
	// Determinism.
	pop2 := testPopulation(7, 20, fastConfig())
	for i := range pop.Clients {
		if pop.Clients[i].BaseDelay != pop2.Clients[i].BaseDelay {
			t.Fatal("population must be deterministic per seed")
		}
	}
}

func TestLocalTrainImprovesLocalFit(t *testing.T) {
	pop := testPopulation(3, 10, fastConfig())
	c := pop.Clients[0]
	rng := rand.New(rand.NewSource(2))
	ref := pop.GlobalInit()
	c.net.SetFlatWeights(ref)
	x, y := c.Train.Materialize()
	before := c.net.Loss(x, y)
	updated := pop.LocalTrain(rng, c, ref, pop.Config.Mu)
	c.net.SetFlatWeights(updated)
	after := c.net.Loss(x, y)
	if after >= before {
		t.Fatalf("local training must reduce local loss: %v → %v", before, after)
	}
}

func TestFedProxLimitsDrift(t *testing.T) {
	cfg := fastConfig()
	cfgProx := cfg
	cfgProx.Mu = 5.0
	cfg.Mu = 0
	popA := testPopulation(4, 10, cfg)
	popB := testPopulation(4, 10, cfgProx)
	ref := popA.GlobalInit()
	drift := func(p *Population) float64 {
		w := p.LocalTrain(rand.New(rand.NewSource(5)), p.Clients[0], ref, p.Config.Mu)
		var d float64
		for i := range w {
			d += (w[i] - ref[i]) * (w[i] - ref[i])
		}
		return d
	}
	if drift(popB) >= drift(popA) {
		t.Fatal("a large proximal term must reduce drift from the reference")
	}
}

func TestWeightedAverage(t *testing.T) {
	got := WeightedAverage([][]float64{{1, 2}, {3, 4}}, []float64{1, 3})
	want := []float64{2.5, 3.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("WeightedAverage = %v, want %v", got, want)
		}
	}
	if WeightedAverage(nil, nil) != nil {
		t.Fatal("empty input → nil")
	}
}

func TestAsyncMixAndStaleness(t *testing.T) {
	w := []float64{0, 0}
	AsyncMix(w, []float64{10, 20}, 0.5)
	if w[0] != 5 || w[1] != 10 {
		t.Fatalf("AsyncMix got %v", w)
	}
	a0 := StalenessAlpha(0.6, 0, 0.5)
	a3 := StalenessAlpha(0.6, 3, 0.5)
	if a0 != 0.6 || a3 >= a0 {
		t.Fatalf("staleness must attenuate α: %v, %v", a0, a3)
	}
}

// ------------------------------------------------------------- grouping

func TestCostLambdaEndpoints(t *testing.T) {
	pop := testPopulation(8, 20, fastConfig())
	g := NewGroup(0, 10, 30)
	g.Add(pop.Clients[0])
	g.UpdateCenter()
	// λ = 0: cost is pure latency distance (FedAT limit).
	gr0 := &Grouper{Lambda: 0, RT: 100, NumClasses: 10}
	c := pop.Clients[1]
	if got, want := gr0.Cost(g, c), math.Abs(g.Center-c.Latency()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("λ=0 cost %v, want latency distance %v", got, want)
	}
	// Large λ: data term dominates — a client that balances the group
	// beats a latency-close client with overlapping labels.
	grInf := &Grouper{Lambda: 1e6, RT: 1e9, NumClasses: 10}
	var overlap, complement *Client
	base := pop.Clients[0].Train.LabelCounts()
	for _, cand := range pop.Clients[1:] {
		cc := cand.Train.LabelCounts()
		shared := 0
		for i := range cc {
			if cc[i] > 0 && base[i] > 0 {
				shared++
			}
		}
		if shared > 0 && overlap == nil {
			overlap = cand
		}
		if shared == 0 && complement == nil {
			complement = cand
		}
	}
	if overlap == nil || complement == nil {
		t.Skip("partition produced no overlap/complement pair")
	}
	if grInf.Cost(g, complement) >= grInf.Cost(g, overlap) {
		t.Fatal("with large λ, the balancing client must be cheaper")
	}
}

func TestInitialGroupingRespectsRT(t *testing.T) {
	pop := testPopulation(9, 40, fastConfig())
	gr := &Grouper{Lambda: 100, RT: 10, NumClasses: 10}
	groups := gr.InitialGrouping(rand.New(rand.NewSource(1)), pop.Clients, 5)
	if len(groups) != 5 {
		t.Fatalf("got %d groups", len(groups))
	}
	assigned := 0
	for _, g := range groups {
		for _, c := range g.Members {
			assigned++
			if c.Dropped {
				t.Fatal("assigned clients must not be dropped")
			}
		}
	}
	dropped := 0
	for _, c := range pop.Clients {
		if c.Dropped {
			dropped++
		}
	}
	if assigned+dropped != len(pop.Clients) {
		t.Fatalf("assigned %d + dropped %d != %d", assigned, dropped, len(pop.Clients))
	}
}

func TestEcoFLGroupingBalancesDataVsLatencyOnly(t *testing.T) {
	pop := testPopulation(10, 60, fastConfig())
	mk := func(lambda float64) float64 {
		gr := &Grouper{Lambda: lambda, RT: 1e9, NumClasses: 10}
		groups := gr.InitialGrouping(rand.New(rand.NewSource(2)), pop.Clients, 5)
		return AvgGroupJS(groups, 10)
	}
	latOnly := func() float64 {
		gr := &Grouper{Lambda: 0, RT: 1e9, NumClasses: 10}
		groups := gr.LatencyOnlyGrouping(rand.New(rand.NewSource(2)), pop.Clients, 5)
		return AvgGroupJS(groups, 10)
	}()
	if mk(2000) >= latOnly {
		t.Fatalf("λ=2000 grouping JS (%v) must beat latency-only (%v)", mk(2000), latOnly)
	}
	// JS should be non-increasing in λ broadly: λ=2000 ≤ λ=0.
	if mk(2000) > mk(0) {
		t.Fatal("larger λ must not worsen data balance")
	}
}

func TestDataOnlyGroupingNearUniform(t *testing.T) {
	pop := testPopulation(11, 50, fastConfig())
	gr := &Grouper{Lambda: 0, RT: 1e9, NumClasses: 10}
	groups := gr.DataOnlyGrouping(rand.New(rand.NewSource(3)), pop.Clients, 5)
	for _, g := range groups {
		if len(g.Members) == 0 {
			t.Fatal("data-only grouping must fill all groups")
		}
		if js := stats.JS(g.Distribution(), stats.NewUniform(10)); js > 0.25 {
			t.Fatalf("group %d JS %v too skewed for Astraea-style balancing", g.ID, js)
		}
	}
}

func TestCheckAndRegroupMovesStraggler(t *testing.T) {
	pop := testPopulation(12, 40, fastConfig())
	gr := &Grouper{Lambda: 10, RT: 12, NumClasses: 10}
	groups := gr.InitialGrouping(rand.New(rand.NewSource(4)), pop.Clients, 4)
	var g *Group
	for _, cand := range groups {
		if len(cand.Members) > 1 {
			g = cand
			break
		}
	}
	if g == nil {
		t.Skip("no multi-member group formed")
	}
	victim := g.Members[0]
	// Force a large latency spike.
	victim.BaseDelay = g.Center*5 + 100
	victim.CollabDegree = 1
	moved := gr.CheckAndRegroup(g, groups)
	if moved == 0 {
		t.Fatal("straggler must be moved or dropped")
	}
	for _, m := range g.Members {
		if m == victim {
			t.Fatal("victim should have left its group")
		}
	}
	if !victim.Dropped {
		// It must be in some other group within RT.
		found := false
		for _, other := range groups {
			for _, m := range other.Members {
				if m == victim {
					found = true
					if math.Abs(other.Center-victim.Latency()) > gr.RT*2 {
						t.Fatal("victim regrouped outside threshold")
					}
				}
			}
		}
		if !found {
			t.Fatal("victim neither dropped nor regrouped")
		}
	}
}

func TestTryReadmit(t *testing.T) {
	pop := testPopulation(13, 30, fastConfig())
	gr := &Grouper{Lambda: 10, RT: 12, NumClasses: 10}
	groups := gr.InitialGrouping(rand.New(rand.NewSource(5)), pop.Clients, 4)
	c := groups[0].Members[0]
	groups[0].Remove(c)
	c.Dropped = true
	c.BaseDelay = 1e6 // far outside every group
	if gr.TryReadmit(c, groups) {
		t.Fatal("client far outside all thresholds must stay dropped")
	}
	c.BaseDelay = groups[0].Center
	c.CollabDegree = 1
	if !gr.TryReadmit(c, groups) {
		t.Fatal("client back within threshold must be readmitted")
	}
	if c.Dropped {
		t.Fatal("readmitted client must not be marked dropped")
	}
}

// ------------------------------------------------------------- strategies

func TestRunFedAvgLearns(t *testing.T) {
	pop := testPopulation(14, 30, fastConfig())
	res := RunFedAvg(pop)
	if res.Rounds == 0 || len(res.Curve) == 0 {
		t.Fatal("FedAvg must complete rounds and record points")
	}
	if res.FinalAccuracy < 0.35 {
		t.Fatalf("FedAvg final accuracy %v too low on easy data", res.FinalAccuracy)
	}
	// Virtual time must be monotone.
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i].Time <= res.Curve[i-1].Time {
			t.Fatal("curve times must increase")
		}
	}
}

func TestRunFedAsyncLearns(t *testing.T) {
	pop := testPopulation(15, 30, fastConfig())
	res := runStrategy(t, pop, "fedasync")
	if res.Rounds == 0 {
		t.Fatal("FedAsync must process updates")
	}
	if res.FinalAccuracy < 0.3 {
		t.Fatalf("FedAsync final accuracy %v too low", res.FinalAccuracy)
	}
}

func TestRunHierarchicalLearnsAndAggregatesFaster(t *testing.T) {
	cfg := fastConfig()
	cfg.Lambda = 500
	popH := testPopulation(16, 30, cfg)
	hier := RunHierarchical(popH, HierOptions{Grouping: GroupEcoFL, DynamicRegroup: true})
	if hier.FinalAccuracy < 0.35 {
		t.Fatalf("hierarchical accuracy %v too low", hier.FinalAccuracy)
	}
	popA := testPopulation(16, 30, cfg)
	avg := RunFedAvg(popA)
	// Groups aggregate independently and faster than global sync rounds.
	if hier.Rounds <= avg.Rounds {
		t.Fatalf("hierarchical should aggregate more often: %d vs %d", hier.Rounds, avg.Rounds)
	}
	if hier.AvgJS <= 0 || hier.AvgLatency <= 0 {
		t.Fatal("hierarchical run must report grouping metrics")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 400
	a := RunFedAvg(testPopulation(17, 20, cfg))
	b := RunFedAvg(testPopulation(17, 20, cfg))
	if a.FinalAccuracy != b.FinalAccuracy || a.Rounds != b.Rounds {
		t.Fatal("same seed must reproduce the run exactly")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	r := &RunResult{Curve: []Point{{100, 0.2}, {200, 0.5}, {300, 0.7}}}
	if got := r.TimeToAccuracy(0.5); got != 200 {
		t.Fatalf("TimeToAccuracy(0.5) = %v", got)
	}
	if got := r.TimeToAccuracy(0.9); !math.IsInf(got, 1) {
		t.Fatalf("unreached target must be +Inf, got %v", got)
	}
}

func TestDynamicSettingChangesLatencies(t *testing.T) {
	cfg := fastConfig()
	cfg.Dynamic = true
	cfg.DynamicProb = 0.9
	cfg.DynamicInterval = 50
	cfg.Duration = 400
	pop := testPopulation(18, 20, cfg)
	before := make([]float64, len(pop.Clients))
	for i, c := range pop.Clients {
		before[i] = c.Latency()
	}
	RunFedAvg(pop)
	changed := 0
	for i, c := range pop.Clients {
		if c.Latency() != before[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("dynamic setting must change some latencies")
	}
}
