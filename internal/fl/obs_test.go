package fl

import (
	"math"
	"testing"

	"ecofl/internal/obs"
)

// sameCurve compares two accuracy curves for byte-identity (exact float
// equality, not tolerance — instrumentation must not perturb the math or the
// rng stream at all).
func sameCurve(t *testing.T, name string, a, b []Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: curve lengths differ: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) ||
			math.Float64bits(a[i].Accuracy) != math.Float64bits(b[i].Accuracy) {
			t.Fatalf("%s: curves diverge at %d: %+v vs %+v", name, i, a[i], b[i])
		}
	}
}

// TestInstrumentationLeavesCurvesIdentical runs each strategy twice from the
// same seed — once bare, once with a virtual-clock trace attached — and
// requires byte-identical accuracy curves. This is the tentpole's invariant:
// observability reads the simulation, it never influences it.
func TestInstrumentationLeavesCurvesIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 300

	t.Run("FedAvg", func(t *testing.T) {
		bare := RunFedAvg(testPopulation(7, 12, cfg))

		traced := cfg
		traced.Trace = obs.New(nil)
		got := RunFedAvg(testPopulation(7, 12, traced))
		sameCurve(t, "FedAvg", bare.Curve, got.Curve)
		if bare.Rounds != got.Rounds {
			t.Fatalf("rounds differ: %d vs %d", bare.Rounds, got.Rounds)
		}
		if traced.Trace.Len() != got.Rounds {
			t.Fatalf("trace has %d spans, want one per round (%d)", traced.Trace.Len(), got.Rounds)
		}
	})

	t.Run("EcoFL", func(t *testing.T) {
		opts := HierOptions{Grouping: GroupEcoFL, DynamicRegroup: true}
		bare := RunHierarchical(testPopulation(7, 12, cfg), opts)

		traced := cfg
		traced.Trace = obs.New(nil)
		got := RunHierarchical(testPopulation(7, 12, traced), opts)
		sameCurve(t, "EcoFL", bare.Curve, got.Curve)
		if bare.Rounds != got.Rounds {
			t.Fatalf("rounds differ: %d vs %d", bare.Rounds, got.Rounds)
		}
		if traced.Trace.Len() != got.Rounds {
			t.Fatalf("trace has %d spans, want one per group round (%d)", traced.Trace.Len(), got.Rounds)
		}
	})
}

// TestFedAsyncTraceSpansMatchRounds checks the async strategy records one
// update span per aggregation event on the virtual clock.
func TestFedAsyncTraceSpansMatchRounds(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 300
	cfg.Trace = obs.New(nil)
	res := runStrategy(t, testPopulation(7, 12, cfg), "fedasync")
	if res.Rounds == 0 {
		t.Fatal("no rounds executed")
	}
	if cfg.Trace.Len() != res.Rounds {
		t.Fatalf("trace has %d spans, want %d", cfg.Trace.Len(), res.Rounds)
	}
	for _, e := range cfg.Trace.Events() {
		if e.Dur <= 0 {
			t.Fatalf("update span has non-positive virtual duration: %+v", e)
		}
	}
}
