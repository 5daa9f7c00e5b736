package fl

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// A local update is its client's weight slab, not a copy: valid until that
// client trains again. These tests pin both halves of that contract.

// sameBits fails the test unless got and want are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: weight %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestUpdateSurvivesOtherClientsUpdates: an update held while other clients
// train — one at a time and fanned out — stays bit-identical.
func TestUpdateSurvivesOtherClientsUpdates(t *testing.T) {
	pop := testPopulation(11, 8, fastConfig())
	rng := rand.New(rand.NewSource(3))
	ref := pop.GlobalInit()
	held := pop.LocalTrain(rng, pop.Clients[0], ref, pop.Config.Mu)
	want := slices.Clone(held)
	pop.LocalTrain(rng, pop.Clients[1], ref, pop.Config.Mu)
	withParallelism(4, func() {
		pop.TrainClients(rng, pop.Clients[2:], held, pop.Config.Mu)
	})
	sameBits(t, "client 0's update after clients 1–7 trained", held, want)
}

// TestLocalTrainFromOwnPreviousUpdate: training a client from its own previous
// update — the view LocalTrain returned, which the training overwrites — is
// training from a copy of it. Without the copy, the proximal term would pull
// toward the weights being trained and vanish.
func TestLocalTrainFromOwnPreviousUpdate(t *testing.T) {
	cfg := fastConfig()
	if cfg.Mu == 0 {
		t.Fatal("the test needs a proximal term")
	}
	popA, popB := testPopulation(12, 4, cfg), testPopulation(12, 4, cfg)
	rngA, rngB := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	cA, cB := popA.Clients[1], popB.Clients[1]

	prevA := popA.LocalTrain(rngA, cA, popA.GlobalInit(), cfg.Mu)
	got := popA.LocalTrain(rngA, cA, prevA, cfg.Mu)

	prevB := popB.LocalTrain(rngB, cB, popB.GlobalInit(), cfg.Mu)
	want := popB.LocalTrain(rngB, cB, slices.Clone(prevB), cfg.Mu)

	sameBits(t, "update from the client's own view vs from a copy", got, want)
	if cA.LastLoss != cB.LastLoss {
		t.Fatalf("LastLoss %v from the view, %v from a copy", cA.LastLoss, cB.LastLoss)
	}

	// A round whose shared ref is one selected client's view: that client
	// overwrites it while the others, fanned out, still train from it.
	withParallelism(4, func() {
		gotAll := popA.TrainClients(rngA, popA.Clients, got, cfg.Mu)
		wantAll := popB.TrainClients(rngB, popB.Clients, slices.Clone(want), cfg.Mu)
		for i := range wantAll {
			sameBits(t, "round from a selected client's view vs from a copy", gotAll[i], wantAll[i])
		}
	})
}
