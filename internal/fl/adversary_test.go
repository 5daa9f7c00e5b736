package fl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ecofl/internal/data"
	"ecofl/internal/fl/robust"
)

// TestRobustDefenseNopByteIdentical is the nop-discipline gate for the
// defense layer: attaching robust.Mean (the interface-shaped twin of the
// legacy weighted average), arming the FedAsync norm clip, and configuring
// an adversary at fraction 0 must reproduce every strategy's curve
// bit-for-bit — same rng consumption, same arithmetic, zero corruption.
func TestRobustDefenseNopByteIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 400
	for _, name := range StrategyNames() {
		base := runStrategy(t, testPopulation(2, 12, cfg), name)

		armed := cfg
		armed.Robust = robust.Mean{}
		armed.Adversary = &Adversary{Fraction: 0, Mode: AdvSignFlip}
		got := runStrategy(t, testPopulation(2, 12, armed), name)

		if !reflect.DeepEqual(base.Curve, got.Curve) {
			t.Errorf("%s: defenses at f=0 changed the curve:\nbase %v\ngot  %v",
				name, base.Curve, got.Curve)
		}
		if !reflect.DeepEqual(base.Participation, got.Participation) {
			t.Errorf("%s: defenses at f=0 changed participation", name)
		}
		if got.Corrupted != 0 {
			t.Errorf("%s: fraction-0 adversary corrupted %d updates", name, got.Corrupted)
		}
		if got.Clipped != 0 {
			t.Errorf("%s: norm clip fired %d times on a clean run", name, got.Clipped)
		}
	}
}

// TestEveryStrategyReportsItsFaults: the adversary, the dropout coin and the
// availability traces come with the lifecycle, so every row of the strategy
// table honours and counts them. TiFL's own loop read none of the three and
// reported 0 for each — while mixing corrupted updates with a plain mean.
func TestEveryStrategyReportsItsFaults(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 300
	churn := sessionTraces(t, 20, 4*cfg.Duration)
	for _, name := range StrategyNames() {
		attacked := cfg
		attacked.Adversary, attacked.Robust = &Adversary{Fraction: 0.2, Mode: AdvSignFlip}, robust.Median{}
		if r := runStrategy(t, testPopulation(3, 20, attacked), name); r.Corrupted == 0 {
			t.Errorf("%s: a 20%% adversary corrupted nothing", name)
		}
		churned := cfg
		churned.Churn = churn
		if r := runStrategy(t, testPopulation(3, 20, churned), name); r.ChurnDepartures == 0 {
			t.Errorf("%s: session churn took nobody mid-round", name)
		}
		// A lone update has no committee for the coin to cut (the scenario
		// spec refuses the knob there); every other strategy must count it.
		dropping := cfg
		dropping.DropoutProb, dropping.Quorum = 0.3, 0.6
		if r := runStrategy(t, testPopulation(3, 20, dropping), name); r.Dropouts == 0 && !strategies[name].async {
			t.Errorf("%s: a 30%% dropout coin dropped nobody", name)
		}
	}
}

// compromised reports whether the client ID is under adversary control.
func (p *AdversaryPlan) compromised(id int) bool {
	if p == nil {
		return false
	}
	_, ok := p.state[id]
	return ok
}

// The compromised set and every corruption draw come from the adversary's
// own seed lane, keyed by client ID — two identical runs corrupt
// identically, and the set tracks the configured fraction.
func TestAdversaryPlanDeterministic(t *testing.T) {
	a := &Adversary{Fraction: 0.3, Mode: AdvNoise, Scale: 2, Seed: 42}
	p1, p2 := a.Plan(20), a.Plan(20)
	count := 0
	for id := 0; id < 20; id++ {
		if p1.compromised(id) != p2.compromised(id) {
			t.Fatalf("plans disagree on client %d", id)
		}
		if p1.compromised(id) {
			count++
		}
	}
	if count != 6 {
		t.Fatalf("fraction 0.3 of 20 compromised %d clients, want 6", count)
	}
	ref := []float64{1, 2, 3, 4}
	for id := 0; id < 20; id++ {
		u1 := append([]float64(nil), ref...)
		u2 := append([]float64(nil), ref...)
		if p1.Corrupt(id, ref, u1) != p2.Corrupt(id, ref, u2) {
			t.Fatalf("plans disagree on corrupting client %d", id)
		}
		if !reflect.DeepEqual(u1, u2) {
			t.Fatalf("client %d corrupted differently across identical plans", id)
		}
	}
	if p1.Corruptions() != 6 {
		t.Fatalf("Corruptions() = %d, want 6", p1.Corruptions())
	}
	// Nil-plan discipline: fraction 0 materializes to nil and nops.
	var nilPlan *AdversaryPlan = (&Adversary{Fraction: 0, Mode: AdvNaN}).Plan(20)
	if nilPlan != nil || nilPlan.compromised(3) || nilPlan.Corrupt(3, ref, append([]float64(nil), ref...)) {
		t.Fatal("fraction-0 adversary is not a nop")
	}
}

// Each mode's corruption signature, on a hand-checkable vector.
func TestAdversaryModes(t *testing.T) {
	ref := []float64{1, 1}
	mk := func(mode string, scale float64) *AdversaryPlan {
		return (&Adversary{Fraction: 1, Mode: mode, Scale: scale, Seed: 7}).Plan(1)
	}
	upd := []float64{2, 0}
	mk(AdvSignFlip, 1).Corrupt(0, ref, upd)
	if want := []float64{0, 2}; !reflect.DeepEqual(upd, want) {
		t.Fatalf("sign-flip: %v, want %v", upd, want)
	}
	upd = []float64{2, 0}
	mk(AdvZero, 1).Corrupt(0, ref, upd)
	if upd[0] != 0 || upd[1] != 0 {
		t.Fatalf("zero: %v", upd)
	}
	upd = []float64{2, 0}
	mk(AdvNaN, 1).Corrupt(0, ref, upd)
	if !math.IsNaN(upd[0]) {
		t.Fatalf("nan: %v", upd)
	}
	// Drift accumulates: the offset after two rounds is twice the first.
	drift := mk(AdvDrift, 0.5)
	u1 := []float64{1, 1}
	drift.Corrupt(0, ref, u1)
	d1 := robust.DeltaNorm(u1, ref)
	u2 := []float64{1, 1}
	drift.Corrupt(0, ref, u2)
	d2 := robust.DeltaNorm(u2, ref)
	if math.Abs(d1-0.5) > 1e-12 || math.Abs(d2-1.0) > 1e-12 {
		t.Fatalf("drift norms %v, %v; want 0.5 then 1.0", d1, d2)
	}
	// Noise lands far from the honest update but stays finite.
	upd = []float64{2, 0}
	mk(AdvNoise, 3).Corrupt(0, ref, upd)
	for _, v := range upd {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("noise produced non-finite: %v", upd)
		}
	}
}

// soakPopulation mirrors testPopulation but with an even class partition.
// Robust mixers need honest updates to agree coordinate-wise: under the
// extreme 2-classes-per-client skew of testPopulation, a class's classifier
// rows receive real gradient from only ~2 of 10 committee members, so the
// coordinate median suppresses that minority signal even with zero
// attackers (clean+median plateaus near 0.44 there). That is the known
// heterogeneity limit of robust statistics, not a defense bug; the soak
// evaluates the defense inside its contract.
func soakPopulation(seed int64, n int, cfg Config) *Population {
	rng := rand.New(rand.NewSource(seed))
	ds := data.MNISTLike(rng, 40*n)
	_, test := ds.Split(0.85)
	shards := data.PartitionByClasses(rng, ds, n, 10)
	tx, ty := test.Materialize()
	return NewPopulation(rng, shards, tx, ty, cfg)
}

// TestByzantineSoak30 is the ISSUE 10 acceptance soak: with 30% of the
// fleet sign-flipping at 4× gain, coordinate-median in-group aggregation
// holds eco-fl's final accuracy within 0.05 of the clean run, while the
// undefended weighted mean demonstrably degrades. Everything is seeded, so
// the accuracies are exactly reproducible.
func TestByzantineSoak30(t *testing.T) {
	if testing.Short() {
		t.Skip("byzantine soak is a long test")
	}
	cfg := fastConfig()
	cfg.Duration = 1500
	cfg.EvalInterval = 80
	cfg.MaxConcurrent = 20
	// Two groups of ~10: a robust mixer defends a committee only while
	// attackers are a per-committee minority. With groups of 5, a 30%
	// global fraction routinely produces a local majority — past any robust
	// mixer's breakdown point by construction, not a defense bug.
	cfg.NumGroups = 2
	opts := HierOptions{Grouping: GroupEcoFL, DynamicRegroup: true}

	clean := RunHierarchical(soakPopulation(7, 20, cfg), opts)

	attacked := cfg
	attacked.Adversary = &Adversary{Fraction: 0.3, Mode: AdvSignFlip, Scale: 4}
	undefended := RunHierarchical(soakPopulation(7, 20, attacked), opts)

	defended := attacked
	defended.Robust = robust.Median{}
	resilient := RunHierarchical(soakPopulation(7, 20, defended), opts)

	t.Logf("clean final %.3f; 30%% sign-flip undefended final %.3f (corrupted %d); "+
		"median-defended final %.3f (corrupted %d)",
		clean.FinalAccuracy, undefended.FinalAccuracy, undefended.Corrupted,
		resilient.FinalAccuracy, resilient.Corrupted)

	if undefended.Corrupted == 0 || resilient.Corrupted == 0 {
		t.Fatal("30% adversary corrupted zero updates")
	}
	if diff := math.Abs(clean.FinalAccuracy - resilient.FinalAccuracy); diff > 0.05 {
		t.Errorf("median-defended run diverged from clean: |%.3f - %.3f| = %.3f > 0.05",
			clean.FinalAccuracy, resilient.FinalAccuracy, diff)
	}
	if undefended.FinalAccuracy > clean.FinalAccuracy-0.10 {
		t.Errorf("undefended mean under attack (%.3f) should degrade well below clean (%.3f)",
			undefended.FinalAccuracy, clean.FinalAccuracy)
	}
	if resilient.FinalAccuracy < undefended.FinalAccuracy+0.05 {
		t.Errorf("defense gained nothing: defended %.3f vs undefended %.3f",
			resilient.FinalAccuracy, undefended.FinalAccuracy)
	}
}
