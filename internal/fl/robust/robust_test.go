package robust_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ecofl/internal/fl"
	"ecofl/internal/fl/robust"
)

func randomUpdates(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	updates := make([][]float64, n)
	weights := make([]float64, n)
	for i := range updates {
		updates[i] = make([]float64, d)
		for j := range updates[i] {
			updates[i][j] = rng.NormFloat64()
		}
		weights[i] = float64(10 + rng.Intn(90))
	}
	return updates, weights
}

// Mean must be arithmetic-for-arithmetic identical to the legacy
// WeightedAverage: the nop-discipline tests lean on this equivalence.
func TestMeanBitIdenticalToWeightedAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		updates, weights := randomUpdates(rng, 1+rng.Intn(8), 1+rng.Intn(50))
		ref := make([]float64, len(updates[0]))
		want := fl.WeightedAverage(updates, weights)
		got := robust.Mean{}.Aggregate(ref, updates, weights)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: Mean diverged from WeightedAverage", trial)
		}
	}
}

func TestMedianIgnoresOutlier(t *testing.T) {
	ref := []float64{0, 0, 0}
	updates := [][]float64{
		{1, 2, 3},
		{1.1, 2.1, 2.9},
		{1e9, -1e9, math.Inf(1)}, // Byzantine
	}
	weights := []float64{1, 1, 1e6} // attacker inflates its weight too
	got := robust.Median{}.Aggregate(ref, updates, weights)
	want := []float64{1.1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("median = %v, want %v", got, want)
	}
}

func TestTrimmedMeanDropsTails(t *testing.T) {
	ref := []float64{0}
	updates := [][]float64{{-1e9}, {1}, {2}, {3}, {1e9}}
	got := robust.TrimmedMean{Trim: 0.2}.Aggregate(ref, updates, nil)
	if want := 2.0; got[0] != want {
		t.Fatalf("trimmed mean = %v, want %v", got[0], want)
	}
	// Over-trimming degrades to the median rather than dividing by zero.
	got = robust.TrimmedMean{Trim: 0.49}.Aggregate(ref, updates[:2], nil)
	if want := (-1e9 + 1) / 2.0; got[0] != want {
		t.Fatalf("degenerate trim = %v, want %v", got[0], want)
	}
}

func TestNormClipBoundsOutlier(t *testing.T) {
	ref := []float64{0, 0}
	updates := [][]float64{
		{1, 0},
		{0.9, 0},
		{1000, 0}, // scaled poison
	}
	weights := []float64{1, 1, 1}
	got := robust.NormClip{}.Aggregate(ref, updates, weights)
	// Adaptive bound = median of delta norms = 1, so the poison contributes
	// at most 1/3 · 1 in coordinate 0.
	if got[0] > 1.0 {
		t.Fatalf("norm-clipped mean %v still dominated by outlier", got)
	}
	fixed := robust.NormClip{Max: 0.5}.Aggregate(ref, updates, weights)
	if fixed[0] > 0.5 {
		t.Fatalf("fixed-bound clip %v exceeds bound", fixed)
	}
}

func TestKrumSelectsClusteredUpdate(t *testing.T) {
	ref := []float64{0, 0}
	updates := [][]float64{
		{1, 1},
		{1.05, 0.95},
		{0.95, 1.05},
		{1.02, 1.01},
		{-50, 80}, // Byzantine outlier
	}
	got := robust.Krum{F: 1}.Aggregate(ref, updates, nil)
	if got[0] < 0.9 || got[0] > 1.1 {
		t.Fatalf("krum selected %v, want a clustered honest update", got)
	}
	// Returned slice must be a copy, not an alias into the inputs.
	got[0] = 999
	if updates[3][0] == 999 || updates[0][0] == 999 {
		t.Fatal("krum aliased a caller update")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"mean", "median", "trimmed", "norm-clip", "krum"} {
		agg, err := robust.ByName(name, 0.25)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if agg.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, agg.Name())
		}
	}
	if _, err := robust.ByName("fancy", 0); err == nil {
		t.Fatal("ByName accepted an unknown aggregator")
	}
	tm, _ := robust.ByName("trimmed", 0.3)
	if tm.(robust.TrimmedMean).Trim != 0.3 {
		t.Fatal("ByName dropped the trim parameter")
	}
}

func TestClipDelta(t *testing.T) {
	ref := []float64{1, 1}
	upd := []float64{1, 5} // delta norm 4
	if !robust.ClipDelta(upd, ref, 2) {
		t.Fatal("expected clip")
	}
	if n := robust.DeltaNorm(upd, ref); math.Abs(n-2) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 2", n)
	}
	before := append([]float64(nil), upd...)
	if robust.ClipDelta(upd, ref, 10) {
		t.Fatal("clip fired under the bound")
	}
	if !reflect.DeepEqual(upd, before) {
		t.Fatal("no-op clip mutated the update")
	}
}

func TestNormTrackerThreshold(t *testing.T) {
	tr := robust.NewNormTracker(16, 4, 6)
	if _, ok := tr.Threshold(); ok {
		t.Fatal("cold tracker reported ready")
	}
	for i := 0; i < 8; i++ {
		tr.Observe(1.0 + 0.01*float64(i%3))
	}
	th, ok := tr.Threshold()
	if !ok {
		t.Fatal("warm tracker not ready")
	}
	// Tight honest norms: the 2·median floor governs, so ~1.0-norm traffic
	// passes and a 10× outlier does not.
	if th < 1.5 || th > 3 {
		t.Fatalf("threshold %v outside the expected floor band", th)
	}
	if 10.0 <= th {
		t.Fatal("outlier under threshold")
	}
	// Poisoned observations (NaN/Inf/negative) must not move the window.
	tr.Observe(math.NaN())
	tr.Observe(math.Inf(1))
	tr.Observe(-1)
	th2, _ := tr.Threshold()
	if th2 != th {
		t.Fatalf("invalid observations moved the threshold: %v -> %v", th, th2)
	}
	// Staleness tightens the gate but never below the floor.
	stale, _ := tr.StaleThreshold(5)
	if stale > th {
		t.Fatalf("stale threshold %v above base %v", stale, th)
	}
	base, _ := tr.Threshold()
	if stale < base/(1+5)-1e-12 && stale < 2*1.0-1e-9 {
		t.Fatalf("stale threshold %v fell below the floor", stale)
	}
}

func TestNormTrackerNilSafe(t *testing.T) {
	var tr *robust.NormTracker
	tr.Observe(1)
	if tr.Ready() {
		t.Fatal("nil tracker ready")
	}
}
