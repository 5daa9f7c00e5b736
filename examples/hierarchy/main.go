// Hierarchy: Eco-FL's grouping-based hierarchical aggregation versus
// FedAvg, FedAsync, TiFL and FedAT on non-IID clients — five rows of fl's
// strategy table, run by name through the one round lifecycle.
//
// Sixty clients hold 2-class data shards and heterogeneous, fluctuating
// response latencies. Eco-FL groups them by latency AND data balance
// (Eq. 4), runs synchronous FedProx rounds inside groups, mixes group
// models asynchronously, and regroups stragglers at runtime (Algorithm 1).
// Model updates are computed for real; time is virtual.
//
//	go run ./examples/hierarchy
package main

import (
	"fmt"
	"math/rand"

	"ecofl/internal/data"
	"ecofl/internal/fl"
)

func main() {
	cfg := fl.Config{
		Seed:          11,
		MaxConcurrent: 20,
		LocalEpochs:   2,
		BatchSize:     10,
		LR:            0.05,
		Mu:            0.05,
		Alpha:         0.5,
		Lambda:        500,
		NumGroups:     5,
		RTThreshold:   15,
		Duration:      1200,
		EvalInterval:  150,
		Dynamic:       true,
		DynamicProb:   0.2, DynamicInterval: 100,
		MeanDelay: 40, StdDelay: 12,
	}

	build := func() *fl.Population {
		rng := rand.New(rand.NewSource(cfg.Seed))
		ds := data.FashionLike(rng, 3600)
		_, test := ds.Split(0.85)
		shards := data.PartitionByClasses(rng, ds, 60, 2)
		tx, ty := test.Materialize()
		return fl.NewPopulation(rng, shards, tx, ty, cfg)
	}

	var runs []*fl.RunResult
	for _, strategy := range []string{"fedavg", "fedasync", "tifl", "fedat", "eco-fl"} {
		r, err := fl.RunByName(build(), strategy)
		if err != nil {
			panic(err)
		}
		runs = append(runs, r)
	}

	fmt.Println("accuracy over virtual time (60 clients, 2-class non-IID, dynamic latencies):")
	for _, r := range runs {
		fmt.Printf("%-10s rounds=%-4d dropped=%-2d final=%.3f  ", r.Strategy, r.Rounds, r.Dropped, r.FinalAccuracy)
		for i, p := range r.Curve {
			if i%2 == 0 {
				fmt.Printf("(%4.0fs %4.1f%%) ", p.Time, p.Accuracy*100)
			}
		}
		fmt.Println()
	}
	eco := runs[len(runs)-1]
	fmt.Printf("\nEco-FL grouping: avg group JS divergence %.3f, avg group latency %.1fs\n",
		eco.AvgJS, eco.AvgLatency)
	if t := eco.TimeToAccuracy(0.6); t < runs[0].TimeToAccuracy(0.6) {
		fmt.Printf("Eco-FL reached 60%% accuracy at %.0fs vs FedAvg's %.0fs\n",
			t, runs[0].TimeToAccuracy(0.6))
	}
}
