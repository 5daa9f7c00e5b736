package fl

import (
	"math/rand"
	"testing"
)

// latClients builds bare clients with fixed latencies (index = ID).
func latClients(lats ...float64) []*Client {
	out := make([]*Client, len(lats))
	for i, l := range lats {
		out[i] = &Client{ID: i, BaseDelay: l, CollabDegree: 1}
	}
	return out
}

func committeeIDs(cut roundCut) []int {
	ids := make([]int, len(cut.committee))
	for i, c := range cut.committee {
		ids[i] = c.ID
	}
	return ids
}

func TestCutRoundDisabledIsIdentity(t *testing.T) {
	sel := latClients(30, 10, 50, 20)
	rng := rand.New(rand.NewSource(1))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(1))
	cut := cutRound(rng, Config{}, nil, 0, sel)
	if rng.Int63() != before {
		t.Fatal("disabled cut consumed random draws")
	}
	if cut.failed || cut.dropouts != 0 || cut.discarded != 0 {
		t.Fatalf("disabled cut reported casualties: %+v", cut)
	}
	if len(cut.committee) != len(sel) {
		t.Fatalf("committee size %d, want %d", len(cut.committee), len(sel))
	}
	for i := range sel {
		if cut.committee[i] != sel[i] {
			t.Fatal("disabled cut must preserve selection order")
		}
	}
	if cut.roundTime != 50 {
		t.Fatalf("roundTime = %v, want slowest latency 50", cut.roundTime)
	}
}

func TestCutRoundQuorumCutsStragglers(t *testing.T) {
	// Quorum 0.5 of 4 selected needs 2 reports: the two fastest commit the
	// round, the two slower survivors are discarded, and the round only
	// lasts as long as the quorum-completing (2nd fastest) reporter.
	sel := latClients(30, 10, 50, 20)
	cut := cutRound(rand.New(rand.NewSource(1)), Config{Quorum: 0.5}, nil, 0, sel)
	if cut.failed {
		t.Fatal("quorum reached, round must not fail")
	}
	ids := committeeIDs(cut)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("committee = %v, want the two fastest [1 3] in selection order", ids)
	}
	if cut.roundTime != 20 {
		t.Fatalf("roundTime = %v, want 2nd-fastest latency 20", cut.roundTime)
	}
	if cut.discarded != 2 {
		t.Fatalf("discarded = %d, want 2", cut.discarded)
	}
}

func TestCutRoundCommitteeKeepsSelectionOrder(t *testing.T) {
	// Committee membership is by latency, but aggregation order is selection
	// order — here client 2 (latency 5) is fastest yet stays in slot order.
	sel := latClients(8, 30, 5, 9)
	cut := cutRound(rand.New(rand.NewSource(1)), Config{Quorum: 0.75}, nil, 0, sel)
	ids := committeeIDs(cut)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("committee = %v, want [0 2 3]", ids)
	}
	if cut.roundTime != 9 {
		t.Fatalf("roundTime = %v, want 9", cut.roundTime)
	}
}

func TestCutRoundDropoutAndFailure(t *testing.T) {
	sel := latClients(10, 20, 30, 40)
	// Certain dropout: everyone drops, any quorum fails, and the round
	// burns the full window.
	cut := cutRound(rand.New(rand.NewSource(1)), Config{DropoutProb: 1, Quorum: 0.25}, nil, 0, sel)
	if !cut.failed || cut.dropouts != 4 || len(cut.committee) != 0 {
		t.Fatalf("total dropout must fail the round: %+v", cut)
	}
	if cut.roundTime != 40 {
		t.Fatalf("failed round must last the full window: %v", cut.roundTime)
	}
	// Zero dropout probability draws nothing and everyone survives.
	cut = cutRound(rand.New(rand.NewSource(1)), Config{DropoutProb: 0, Quorum: 1}, nil, 0, sel)
	if cut.failed || cut.dropouts != 0 || len(cut.committee) != 4 {
		t.Fatalf("no-dropout full-quorum cut: %+v", cut)
	}
}

func TestCutRoundDropoutSurvivorsFillQuorum(t *testing.T) {
	// With a seeded rng, some clients drop; the survivors must still form a
	// committee of exactly ⌈quorum·selected⌉ when enough remain.
	sel := latClients(10, 20, 30, 40, 50, 60, 70, 80)
	rng := rand.New(rand.NewSource(3))
	cut := cutRound(rng, Config{DropoutProb: 0.3, Quorum: 0.5}, nil, 0, sel)
	if cut.failed {
		t.Fatalf("expected quorum reached: %+v", cut)
	}
	if len(cut.committee) != 4 {
		t.Fatalf("committee size %d, want ⌈0.5·8⌉ = 4", len(cut.committee))
	}
	if cut.dropouts+cut.discarded+len(cut.committee) != len(sel) {
		t.Fatalf("casualties don't account for the selection: %+v", cut)
	}
}

// TestRunFedAvgWithDropoutAndQuorum runs the full FedAvg loop under heavy
// dropout with a permissive quorum: the run must still learn, rounds must be
// shorter than the no-quorum run (stragglers no longer gate them), and the
// casualty counters must be populated.
func TestRunFedAvgWithDropoutAndQuorum(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 400
	base := RunFedAvg(testPopulation(17, 20, cfg))

	cfg.DropoutProb = 0.2
	cfg.Quorum = 0.5
	r := RunFedAvg(testPopulation(17, 20, cfg))
	if r.Dropouts == 0 {
		t.Fatal("20% dropout over a whole run produced zero dropouts")
	}
	if r.QuorumDiscarded == 0 {
		t.Fatal("a 50% quorum over a whole run never discarded a straggler")
	}
	if r.Rounds <= base.Rounds {
		t.Fatalf("quorum rounds end at the quorum reporter, so more rounds must fit: %d vs %d", r.Rounds, base.Rounds)
	}
	if r.FinalAccuracy < 0.5 {
		t.Fatalf("run under dropout must still learn: final accuracy %.3f", r.FinalAccuracy)
	}
	if base.Dropouts != 0 || base.QuorumDiscarded != 0 || base.QuorumFailures != 0 {
		t.Fatalf("clean run reported casualties: %+v", base)
	}
}

// TestRunHierarchicalWithDropoutAndQuorum exercises the group-round cut.
func TestRunHierarchicalWithDropoutAndQuorum(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 400
	cfg.DropoutProb = 0.25
	cfg.Quorum = 0.6
	r := RunHierarchical(testPopulation(17, 24, cfg), HierOptions{Grouping: GroupEcoFL})
	if r.Dropouts == 0 {
		t.Fatal("hierarchical run under dropout reported zero dropouts")
	}
	if r.FinalAccuracy < 0.4 {
		t.Fatalf("hierarchical run under dropout must still learn: %.3f", r.FinalAccuracy)
	}
}

// TestQuorumRunsDeterministic: the cut consumes seeded randomness only, so
// two identically-configured faulty runs are identical.
func TestQuorumRunsDeterministic(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 300
	cfg.DropoutProb = 0.2
	cfg.Quorum = 0.5
	for _, name := range StrategyNames() {
		a := runStrategy(t, testPopulation(11, 16, cfg), name)
		b := runStrategy(t, testPopulation(11, 16, cfg), name)
		if a.FinalAccuracy != b.FinalAccuracy || a.Rounds != b.Rounds ||
			a.Dropouts != b.Dropouts || a.QuorumDiscarded != b.QuorumDiscarded {
			t.Fatalf("%s: same seed must reproduce the faulty run exactly", name)
		}
	}
}

func TestEvictStragglers(t *testing.T) {
	cfg := fastConfig()
	pop := testPopulation(5, 10, cfg)
	n := pop.EvictStragglers([]int{2, 5, 99})
	if n != 2 {
		t.Fatalf("evicted %d, want 2 (ID 99 does not exist)", n)
	}
	if !pop.Clients[2].Dropped || !pop.Clients[5].Dropped {
		t.Fatal("evicted clients must be marked Dropped")
	}
	if pop.EvictStragglers([]int{2}) != 0 {
		t.Fatal("re-evicting an already-dropped client must not count")
	}
	sel := sample(rand.New(rand.NewSource(1)), pop.Clients, 10, nil)
	for _, c := range sel {
		if c.Dropped {
			t.Fatal("selection must skip evicted clients")
		}
	}
}
