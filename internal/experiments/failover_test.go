package experiments

import (
	"testing"

	"ecofl/internal/simnet"
)

func TestLiveFailoverSmoke(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	cfg := &LiveFailover{
		Seed:      7,
		Rounds:    rounds,
		FailRound: rounds / 2,
		// Kill the mid-fleet device under severed-link chaos — the report
		// must show an executed migration and a bit-identical recovery.
		FailDevice: 1,
		Fault:      simnet.FaultPlan{Mode: simnet.FaultSever, Prob: 0.02, After: 4},
	}
	rep, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Rounds != rounds || rep.Stats.Aborts < 1 || rep.Stats.Migrations < 1 {
		t.Fatalf("unexpected stats: %+v", rep.Stats)
	}
	if !rep.BitIdentical {
		t.Fatal("recovered model diverged from the fault-free oracle")
	}
	if rep.Stats.MigratedBytes == 0 || rep.Stats.PlannedMoveBytes == 0 {
		t.Fatalf("migration accounting empty: %+v", rep.Stats)
	}
}
