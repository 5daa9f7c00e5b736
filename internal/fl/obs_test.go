package fl

import (
	"math"
	"testing"

	"ecofl/internal/obs/journal"
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

// checkRoundSpans requires one span per resolved round — its fl.round-commit
// or fl.quorum-fail event — with a positive duration that starts no earlier
// than the run. A synchronous round's span starts where its fl.round-start
// event stands, so its duration is the round time.
func checkRoundSpans(t *testing.T, evs []journal.Event, rounds int) {
	t.Helper()
	type roundKey struct {
		round int
		group string
	}
	starts := map[roundKey]float64{}
	spans := 0
	for _, e := range evs {
		switch e.Kind {
		case "fl.round-start":
			starts[roundKey{e.Round, e.Attrs["group"]}] = e.TS
		case "fl.round-commit", "fl.quorum-fail":
			spans++
			if !(e.Dur > 0) || e.TS-e.Dur < 0 {
				t.Fatalf("round span without a positive duration inside the run: %+v", e)
			}
			start, ok := starts[roundKey{e.Round, e.Attrs["group"]}]
			if e.Kind == "fl.round-commit" && ok && math.Abs(e.TS-e.Dur-start) > 1e-9*e.TS {
				t.Fatalf("round %d's span starts at %v, its round-start event at %v", e.Round, e.TS-e.Dur, start)
			}
		}
	}
	if spans != rounds {
		t.Fatalf("journal has %d round spans, want one per round (%d)", spans, rounds)
	}
}

// TestInstrumentationLeavesCurvesIdentical runs each strategy twice from the
// same seed — once bare, once with a virtual-clock journal attached — and
// requires byte-identical accuracy curves and one round span per round. This
// is the tentpole's invariant: observability reads the simulation, it never
// influences it.
func TestInstrumentationLeavesCurvesIdentical(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 300

	t.Run("FedAvg", func(t *testing.T) {
		bare := RunFedAvg(testPopulation(7, 12, cfg))

		traced := cfg
		traced.Journal = journal.NewClock(0, 0, nil)
		got := RunFedAvg(testPopulation(7, 12, traced))
		sameCurve(t, "FedAvg", bare.Curve, got.Curve)
		if bare.Rounds != got.Rounds {
			t.Fatalf("rounds differ: %d vs %d", bare.Rounds, got.Rounds)
		}
		checkRoundSpans(t, traced.Journal.Events(), got.Rounds)
	})

	t.Run("EcoFL", func(t *testing.T) {
		opts := HierOptions{Grouping: GroupEcoFL, DynamicRegroup: true}
		bare := RunHierarchical(testPopulation(7, 12, cfg), opts)

		traced := cfg
		traced.Journal = journal.NewClock(0, 0, nil)
		got := RunHierarchical(testPopulation(7, 12, traced), opts)
		sameCurve(t, "EcoFL", bare.Curve, got.Curve)
		if bare.Rounds != got.Rounds {
			t.Fatalf("rounds differ: %d vs %d", bare.Rounds, got.Rounds)
		}
		checkRoundSpans(t, traced.Journal.Events(), got.Rounds)
	})
}

// TestFedAsyncTraceSpansMatchRounds checks the async strategy records one
// update span per aggregation event on the virtual clock, each on its worker
// slot's lane.
func TestFedAsyncTraceSpansMatchRounds(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 300
	cfg.Journal = journal.NewClock(0, 0, nil)
	res := runStrategy(t, testPopulation(7, 12, cfg), "fedasync")
	if res.Rounds == 0 {
		t.Fatal("no rounds executed")
	}
	evs := cfg.Journal.Events()
	checkRoundSpans(t, evs, res.Rounds)
	for _, e := range evs {
		if e.Kind == "fl.round-commit" && (e.Lane < 0 || e.Lane >= cfg.MaxConcurrent) {
			t.Fatalf("update span on lane %d, want a worker slot in [0,%d): %+v", e.Lane, cfg.MaxConcurrent, e)
		}
	}
}
