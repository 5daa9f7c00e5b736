package fl

import (
	"math"
	"reflect"
	"testing"

	"ecofl/internal/device"
	"ecofl/internal/obs/journal"
	"ecofl/internal/obs/journal/journaltest"
)

// alwaysOnTraces builds a trace set where every device is online for the
// whole horizon — churn machinery attached, zero actual churn.
func alwaysOnTraces(t *testing.T, n int, horizon float64) *device.TraceSet {
	t.Helper()
	traces := make(map[int]*device.AvailabilityTrace, n)
	for id := 0; id < n; id++ {
		tr, err := device.NewAvailabilityTrace([]device.Session{{Start: 0, End: horizon}})
		if err != nil {
			t.Fatal(err)
		}
		traces[id] = tr
	}
	return device.NewTraceSet(traces)
}

// sessionTraces builds seeded session churn for n devices: online for 60
// virtual seconds and offline for 30 on average, so most rounds lose someone.
func sessionTraces(t *testing.T, n int, horizon float64) *device.TraceSet {
	t.Helper()
	ts, err := device.Sessions(9, n, device.SessionModel{MeanOnline: 60, MeanOffline: 30, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestChurnByteIdenticalWhenAlwaysOn is the acceptance gate for the churn
// refactor: attaching a trace set that never takes anyone offline must leave
// every strategy's curve byte-identical to the no-trace path — same rng
// consumption, same selection, same aggregation order.
func TestChurnByteIdenticalWhenAlwaysOn(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 400
	for _, name := range StrategyNames() {
		base := runStrategy(t, testPopulation(2, 12, cfg), name)

		traced := cfg
		// The horizon must cover round tails that finish past Duration.
		traced.Churn = alwaysOnTraces(t, 12, cfg.Duration*100)
		got := runStrategy(t, testPopulation(2, 12, traced), name)

		if !reflect.DeepEqual(base.Curve, got.Curve) {
			t.Errorf("%s: always-online trace changed the curve:\nbase %v\ngot  %v",
				name, base.Curve, got.Curve)
		}
		if !reflect.DeepEqual(base.Participation, got.Participation) {
			t.Errorf("%s: always-online trace changed participation", name)
		}
		if got.ChurnDepartures != 0 || got.Readmissions != 0 {
			t.Errorf("%s: always-online trace counted churn: departures %d, readmissions %d",
				name, got.ChurnDepartures, got.Readmissions)
		}
	}
}

// TestChurnDepartAndReadmit pins the mid-round semantics on a hand-built
// trace: a client online at selection time but offline before its report
// lands departs (work lost, counted), and it is re-admitted once its trace
// comes back.
func TestChurnDepartAndReadmit(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 600
	cfg.MaxConcurrent = 4
	rec := journal.NewClock(0, 64, nil)
	cfg.Journal = rec
	// Client 0 is online for a window far shorter than any round latency
	// (min BaseDelay is MeanDelay/4 = 10, min degree 0.2 → latency ≥ 2, and
	// the trace cuts out at 1s), then returns for the rest of the run.
	tr, err := device.NewAvailabilityTrace([]device.Session{{Start: 0, End: 1}, {Start: 300, End: 600}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Churn = device.NewTraceSet(map[int]*device.AvailabilityTrace{0: tr})

	pop := testPopulation(5, 4, cfg)
	res := RunFedAvg(pop)
	journaltest.DumpOnFailure(t, 64, rec)

	if res.ChurnDepartures == 0 {
		t.Error("client 0's trace dies mid-round yet no departure was counted")
	}
	if res.Readmissions == 0 {
		t.Error("client 0 comes back at t=300 yet no readmission was counted")
	}
	var sawOffline, sawReadmit bool
	var offlineAt, readmitAt float64
	for _, e := range rec.Events() {
		switch e.Kind {
		case "fl.offline":
			if e.Client == 0 && !sawOffline {
				sawOffline, offlineAt = true, e.TS
			}
		case "fl.readmit":
			if e.Client == 0 && !sawReadmit {
				sawReadmit, readmitAt = true, e.TS
			}
		}
	}
	if !sawOffline || !sawReadmit {
		t.Fatalf("journal missing lifecycle events: offline %v, readmit %v", sawOffline, sawReadmit)
	}
	if readmitAt < offlineAt {
		t.Errorf("readmit at %g precedes offline at %g", readmitAt, offlineAt)
	}
	if readmitAt < 300 {
		t.Errorf("readmit at %g but the trace is dark until 300", readmitAt)
	}
}

// TestChurnSoak50 is the ISSUE 9 acceptance soak: at 50% seeded diurnal
// churn, eco-fl with quorum 0.6 plus trace-driven departure/re-admission
// must converge within 0.05 of the clean run, while the no-membership
// baseline (every selected client must report) degrades measurably — most
// of its rounds fail because some selected client's trace dies before the
// slowest reporter's deadline.
func TestChurnSoak50(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak is a long test")
	}
	cfg := fastConfig()
	cfg.Duration = 1100
	cfg.EvalInterval = 80
	// 20 concurrent over 4 groups → 5 selected per group round, so quorum
	// 0.6 needs 3 of 5 — real slack over the all-must-report baseline.
	cfg.MaxConcurrent = 20
	opts := HierOptions{Grouping: GroupEcoFL, DynamicRegroup: true}

	clean := RunHierarchical(testPopulation(3, 20, cfg), opts)

	churn50 := func() *device.TraceSet {
		ts, err := device.Diurnal(99, 20, device.DiurnalModel{
			Period:    cfg.Duration / 4,
			DutyCycle: 0.5,
			Horizon:   cfg.Duration,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}

	withQuorum := cfg
	withQuorum.Churn = churn50()
	withQuorum.Quorum = 0.6
	resilient := RunHierarchical(testPopulation(3, 20, withQuorum), opts)

	noMembership := cfg
	noMembership.Churn = churn50()
	noMembership.Quorum = 1 // all selected must report: no quorum slack
	baseline := RunHierarchical(testPopulation(3, 20, noMembership), opts)

	t.Logf("clean final %.3f; churn50+quorum final %.3f (departures %d, readmissions %d, failed %d); "+
		"churn50 no-quorum final %.3f (failed %d of %d rounds)",
		clean.FinalAccuracy, resilient.FinalAccuracy, resilient.ChurnDepartures,
		resilient.Readmissions, resilient.QuorumFailures,
		baseline.FinalAccuracy, baseline.QuorumFailures, baseline.Rounds)

	if resilient.ChurnDepartures == 0 {
		t.Error("50% diurnal churn produced zero mid-round departures")
	}
	if resilient.Readmissions == 0 {
		t.Error("diurnal traces cycle but nobody was re-admitted")
	}
	if diff := math.Abs(clean.FinalAccuracy - resilient.FinalAccuracy); diff > 0.05 {
		t.Errorf("churn-resilient run diverged from clean: |%.3f - %.3f| = %.3f > 0.05",
			clean.FinalAccuracy, resilient.FinalAccuracy, diff)
	}
	// The no-membership baseline must degrade measurably: it burns rounds on
	// failed all-must-report aggregations the quorum run commits.
	if baseline.QuorumFailures <= resilient.QuorumFailures {
		t.Errorf("no-quorum baseline failed %d rounds, quorum run %d — expected the baseline to burn more",
			baseline.QuorumFailures, resilient.QuorumFailures)
	}
	if baseline.FinalAccuracy >= resilient.FinalAccuracy+0.01 {
		t.Errorf("no-quorum baseline (%.3f) outperformed the resilient run (%.3f)",
			baseline.FinalAccuracy, resilient.FinalAccuracy)
	}
}
