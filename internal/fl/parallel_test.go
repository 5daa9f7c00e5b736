package fl

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// withParallelism runs fn with GOMAXPROCS set to n — the box TrainClients
// shares between its trainers, and the width of a lone trainer's kernels —
// restoring the previous setting afterwards.
func withParallelism(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// curveKey flattens a run's accuracy curve for exact comparison.
func curveKey(r *RunResult) []Point { return r.Curve }

// TestTrainClientsMatchesSerialLocalTrain proves the fan-out helper is a
// drop-in for the sequential loop: same rng stream, same per-slot updates.
// An update is its client's slab until the client trains again, so the serial
// side is cloned before TrainClients retrains the same clients.
func TestTrainClientsMatchesSerialLocalTrain(t *testing.T) {
	pop := testPopulation(9, 8, fastConfig())
	ref := pop.GlobalInit()
	sel := pop.Clients[:6]

	serial := make([][]float64, len(sel))
	rngA := rand.New(rand.NewSource(33))
	withParallelism(1, func() {
		for i, c := range sel {
			serial[i] = slices.Clone(pop.LocalTrain(rngA, c, ref, pop.Config.Mu))
		}
	})
	serialLoss := make([]float64, len(sel))
	for i, c := range sel {
		serialLoss[i] = c.LastLoss
	}

	rngB := rand.New(rand.NewSource(33))
	var parallel [][]float64
	withParallelism(4, func() {
		parallel = pop.TrainClients(rngB, sel, ref, pop.Config.Mu)
	})
	if rngA.Int63() != rngB.Int63() {
		t.Fatal("TrainClients consumed a different amount of shared randomness than the serial loop")
	}
	for i := range sel {
		if len(serial[i]) != len(parallel[i]) {
			t.Fatalf("client %d: update length mismatch", i)
		}
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("client %d weight %d: serial %v vs parallel %v",
					i, j, serial[i][j], parallel[i][j])
			}
		}
		if sel[i].LastLoss != serialLoss[i] {
			t.Fatalf("client %d LastLoss: serial %v vs parallel %v",
				i, serialLoss[i], sel[i].LastLoss)
		}
	}
}

// TestStrategiesCurveInvariantUnderParallelism runs full simulations at
// parallelism 1 and 8 and demands bit-identical accuracy curves — the
// serial-equivalence guarantee that keeps every experiment figure
// machine-independent.
func TestStrategiesCurveInvariantUnderParallelism(t *testing.T) {
	cfg := fastConfig()
	cfg.Duration = 300
	run := func(procs int, name string) []Point {
		var curve []Point
		withParallelism(procs, func() {
			curve = curveKey(runStrategy(t, testPopulation(4, 8, cfg), name))
		})
		return curve
	}
	for _, name := range StrategyNames() {
		serial := run(1, name)
		parallel := run(8, name)
		if len(serial) != len(parallel) {
			t.Fatalf("%s: curve length %d vs %d", name, len(serial), len(parallel))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("%s: curve point %d differs: %+v vs %+v",
					name, i, serial[i], parallel[i])
			}
		}
	}
}

// TestConcurrentRoundRaceClean trains one round with client-level
// concurrency forced on; run under -race this proves the fan-out touches
// only disjoint client state.
func TestConcurrentRoundRaceClean(t *testing.T) {
	pop := testPopulation(2, 12, fastConfig())
	rng := rand.New(rand.NewSource(1))
	ref := pop.GlobalInit()
	withParallelism(8, func() {
		updates := pop.TrainClients(rng, pop.Clients, ref, pop.Config.Mu)
		if len(updates) != len(pop.Clients) {
			t.Fatalf("got %d updates for %d clients", len(updates), len(pop.Clients))
		}
		for i, u := range updates {
			if len(u) != len(ref) {
				t.Fatalf("client %d update has %d weights, want %d", i, len(u), len(ref))
			}
		}
	})
}
