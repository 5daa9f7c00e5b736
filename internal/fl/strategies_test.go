package fl

import (
	"math/rand"
	"testing"

	"ecofl/internal/metrics"
)

func TestGroupSyncEveryDelaysGlobalMixing(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 600
	run := func(every int) (*RunResult, *Population) {
		c := cfg
		c.GroupSyncEvery = every
		pop := testPopulation(30, 24, c)
		return RunHierarchical(pop, HierOptions{Grouping: GroupEcoFL}), pop
	}
	one, _ := run(1)
	three, _ := run(3)
	// Group rounds happen at the same cadence regardless of sync period.
	if three.Rounds == 0 || one.Rounds == 0 {
		t.Fatal("both runs must complete rounds")
	}
	// With a longer sync period, the global model receives fewer mixes, so
	// its curve is coarser but still learns.
	if three.FinalAccuracy < 0.25 {
		t.Fatalf("GroupSyncEvery=3 still must learn, got %.3f", three.FinalAccuracy)
	}
}

func TestFedATWeightingFavorsSlowGroups(t *testing.T) {
	pop := testPopulation(31, 30, fastConfig())
	gr := &Grouper{Lambda: 0, RT: 1e9, NumClasses: 10}
	groups := gr.LatencyOnlyGrouping(rand.New(rand.NewSource(1)), pop.Clients, 4)
	var meanCenter float64
	for _, g := range groups {
		meanCenter += g.Center
	}
	meanCenter /= float64(len(groups))
	// The slowest group's center exceeds the mean, so its effective α is
	// above the base; the fastest is below — FedAT's bias correction.
	slow, fast := groups[len(groups)-1], groups[0]
	if slow.Center <= meanCenter || fast.Center >= meanCenter {
		t.Skip("degenerate grouping for this seed")
	}
	base := 0.4
	alphaSlow := base * slow.Center / meanCenter
	alphaFast := base * fast.Center / meanCenter
	if !(alphaSlow > base && alphaFast < base) {
		t.Fatalf("FedAT weighting broken: slow %.3f, fast %.3f, base %.3f", alphaSlow, alphaFast, base)
	}
}

func TestDynamicRegroupDuringRun(t *testing.T) {
	cfg := fastConfig()
	cfg.Dynamic = true
	cfg.DynamicProb = 0.6
	cfg.DynamicInterval = 60
	cfg.Duration = 900
	cfg.RTThreshold = 10
	cfg.Lambda = 200
	popDG := testPopulation(32, 30, cfg)
	withDG := RunHierarchical(popDG, HierOptions{Grouping: GroupEcoFL, DynamicRegroup: true})
	popNoDG := testPopulation(32, 30, cfg)
	without := RunHierarchical(popNoDG, HierOptions{Grouping: GroupEcoFL})
	if withDG.Rounds == 0 || without.Rounds == 0 {
		t.Fatal("both runs must progress")
	}
	// Under heavy dynamics with a tight threshold, DG maintains at least
	// the same aggregation cadence (stragglers are moved out of groups).
	if withDG.Rounds < without.Rounds*8/10 {
		t.Fatalf("dynamic regrouping should not collapse cadence: %d vs %d", withDG.Rounds, without.Rounds)
	}
}

func TestAllClientsDroppedIsHandled(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 200
	pop := testPopulation(33, 10, cfg)
	for _, c := range pop.Clients {
		c.Dropped = true
	}
	res := RunFedAvg(pop)
	if res.Rounds != 0 {
		t.Fatal("no active clients → no rounds")
	}
	res2 := runStrategy(t, pop, "fedasync")
	if res2.Rounds != 0 {
		t.Fatal("FedAsync with no clients must terminate cleanly")
	}
}

func TestHierarchicalReportsDropped(t *testing.T) {
	cfg := fastConfig()
	cfg.RTThreshold = 2 // draconian: many clients fit no group
	cfg.Duration = 300
	pop := testPopulation(34, 30, cfg)
	res := RunHierarchical(pop, HierOptions{Grouping: GroupEcoFL})
	if res.Dropped == 0 {
		t.Fatal("a tiny RT threshold should drop clients")
	}
	if res.Dropped >= len(pop.Clients) {
		t.Fatal("not everyone can be dropped: K-means centers sit on clients")
	}
}

func TestCurveTimesWithinDuration(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 500
	for _, name := range StrategyNames() {
		res := runStrategy(t, testPopulation(35, 16, cfg), name)
		for _, p := range res.Curve {
			// FedAvg rounds can overrun slightly (round completes past the
			// horizon); allow one mean round of slack.
			if p.Time > cfg.Duration+100 {
				t.Fatalf("%s recorded a point at %v beyond duration", name, p.Time)
			}
		}
	}
}

func TestParticipationTracked(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 400
	pop := testPopulation(40, 16, cfg)
	selected := metrics.GetCounter("ecofl_fl_selected_clients_total", "", "strategy", "FedAvg")
	before := selected.Value()
	res := RunFedAvg(pop)
	total := 0
	for _, n := range res.Participation {
		total += n
	}
	// A fault-free fleet of 16 fills every round's MaxConcurrent seats, and
	// every seat is one dispatched local update.
	if res.Rounds == 0 || total != res.Rounds*cfg.MaxConcurrent {
		t.Fatalf("participation total %d inconsistent with %d rounds of %d", total, res.Rounds, cfg.MaxConcurrent)
	}
	if got := selected.Value() - before; got != int64(total) {
		t.Fatalf("participation total %d, but ecofl_fl_selected_clients_total moved by %d", total, got)
	}
	if len(res.Participation) != len(pop.Clients) {
		t.Fatal("participation vector must cover all clients")
	}
}

func TestTiFLRunsAndLearns(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 800
	pop := testPopulation(60, 30, cfg)
	res := runStrategy(t, pop, "tifl")
	if res.Rounds == 0 {
		t.Fatal("TiFL must complete rounds")
	}
	if res.FinalAccuracy < 0.4 {
		t.Fatalf("TiFL accuracy %.3f too low", res.FinalAccuracy)
	}
	// Credits must spread participation across tiers: slow clients train too.
	trained := 0
	for _, n := range res.Participation {
		if n > 0 {
			trained++
		}
	}
	if trained < len(pop.Clients)/2 {
		t.Fatalf("TiFL credits should spread participation, only %d/%d trained", trained, len(pop.Clients))
	}
}

func TestTiFLFasterRoundsThanFedAvg(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 800
	tifl := runStrategy(t, testPopulation(61, 30, cfg), "tifl")
	avg := RunFedAvg(testPopulation(61, 30, cfg))
	// Tiered rounds wait only for the selected tier, so TiFL completes
	// more rounds in the same virtual time.
	if tifl.Rounds <= avg.Rounds {
		t.Fatalf("TiFL (%d rounds) should out-pace FedAvg (%d rounds)", tifl.Rounds, avg.Rounds)
	}
}
