package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ecofl/internal/data"
	"ecofl/internal/fl"
	"ecofl/internal/stats"
)

// CurveSet is one panel of training curves (Figs 7 and 8).
type CurveSet struct {
	Dataset string
	Runs    []*fl.RunResult
}

func flConfig(seed int64, scale Scale, lambda float64, dynamic bool) fl.Config {
	return fl.Config{
		Seed:            seed,
		MaxConcurrent:   scale.MaxConcurrent,
		LocalEpochs:     scale.LocalEpochs,
		BatchSize:       10,
		LR:              0.05,
		Mu:              0.05,
		Alpha:           0.5,
		Lambda:          lambda,
		NumGroups:       5,
		GroupSyncEvery:  2,
		RTThreshold:     15,
		Duration:        scale.Duration,
		EvalInterval:    scale.EvalInterval,
		Dynamic:         dynamic,
		DynamicProb:     0.2,
		DynamicInterval: scale.Duration / 25,
		MeanDelay:       40,
		StdDelay:        12,
	}
}

// BuildPopulation creates a population on the named dataset preset with the
// scale's classes-per-client non-IID partition (the paper's is 2). Exported
// because every harness that replays the paper's fleet — the figure runners
// here and the declarative scenario runner — must shard data and draw
// latencies from the same seeded stream to be comparable.
func BuildPopulation(seed int64, dataset string, scale Scale, cfg fl.Config) *fl.Population {
	rng := rand.New(rand.NewSource(seed))
	var ds *data.Dataset
	switch dataset {
	case "cifar10":
		ds = data.CIFARLike(rng, scale.DatasetSize)
	case "fashion-mnist":
		ds = data.FashionLike(rng, scale.DatasetSize)
	default:
		ds = data.MNISTLike(rng, scale.DatasetSize)
	}
	_, test := ds.Split(0.85)
	classes := scale.ClassesPerClient
	if classes == 0 {
		classes = 2
	}
	shards := data.PartitionByClasses(rng, ds, scale.Clients, classes)
	tx, ty := test.Materialize()
	return fl.NewPopulation(rng, shards, tx, ty, cfg)
}

// Fig7 reproduces the training-performance comparison on CIFAR-10 and
// Fashion-MNIST under the dynamic setting: FedAvg, FedAsync, FedAT,
// Eco-FL w/o DG, and Eco-FL (§6.2, Fig. 7).
func Fig7(seed int64, scale Scale) []CurveSet {
	var out []CurveSet
	for _, dataset := range []string{"cifar10", "fashion-mnist"} {
		set := CurveSet{Dataset: dataset}
		for _, s := range []struct {
			strategy string
			lambda   float64
		}{{"fedavg", 0}, {"fedasync", 0}, {"fedat", 0}, {"eco-fl-nodg", 500}, {"eco-fl", 500}} {
			cfg := flConfig(seed, scale, s.lambda, true)
			set.Runs = append(set.Runs, runStrategy(BuildPopulation(seed, dataset, scale, cfg), s.strategy))
		}
		out = append(out, set)
	}
	return out
}

// runStrategy runs a row of fl's strategy table; the keys used here are
// constants, so an unknown one is a programming error.
func runStrategy(pop *fl.Population, strategy string) *fl.RunResult {
	r, err := fl.RunByName(pop, strategy)
	if err != nil {
		panic(err)
	}
	return r
}

// rlgPopulation builds the Fig. 8 populations: clients are first placed in
// 5 response-latency groups (RLGs) by K-means on their latencies, then data
// is assigned per the RLG-IID or RLG-NIID protocol so data distribution is
// (or is not) correlated with latency.
func rlgPopulation(seed int64, scale Scale, cfg fl.Config, niid bool) *fl.Population {
	rng := rand.New(rand.NewSource(seed))
	ds := data.MNISTLike(rng, scale.DatasetSize)
	_, test := ds.Split(0.85)
	placeholder := data.PartitionIID(rng, ds, scale.Clients)
	tx, ty := test.Materialize()
	pop := fl.NewPopulation(rng, placeholder, tx, ty, cfg)

	lat := make([]float64, len(pop.Clients))
	for i, c := range pop.Clients {
		lat[i] = c.Latency()
	}
	groupOf, _ := stats.KMeans1D(rng, lat, 5)
	var shards []*data.Subset
	if niid {
		shards = data.PartitionRLGNIID(rng, ds, groupOf, 3)
	} else {
		shards = data.PartitionRLGIID(rng, ds, groupOf)
	}
	for i, c := range pop.Clients {
		c.SetShard(shards[i])
	}
	return pop
}

// Fig8 reproduces the grouping-effectiveness comparison: Astraea, FedAT and
// Eco-FL under RLG-IID and RLG-NIID on MNIST (§6.2, Fig. 8).
func Fig8(seed int64, scale Scale) []CurveSet {
	var out []CurveSet
	for _, niid := range []bool{false, true} {
		name := "RLG-IID @ MNIST"
		if niid {
			name = "RLG-NIID @ MNIST"
		}
		set := CurveSet{Dataset: name}
		for _, s := range []struct {
			strategy string
			lambda   float64
		}{{"astraea", 0}, {"fedat", 0}, {"eco-fl", 500}} {
			cfg := flConfig(seed, scale, s.lambda, false)
			set.Runs = append(set.Runs, runStrategy(rlgPopulation(seed, scale, cfg, niid), s.strategy))
		}
		out = append(out, set)
	}
	return out
}

// Fig9Row is one λ point of the sensitivity sweep.
type Fig9Row struct {
	Lambda     float64
	AvgJS      float64
	AvgLatency float64
	FinalAcc   float64
	BestAcc    float64
}

// Fig9Lambdas is the paper's sweep grid.
var Fig9Lambdas = []float64{0, 250, 500, 1000, 1500, 2000}

// Fig9 reproduces the λ-sensitivity analysis on RLG-NIID MNIST: average JS
// divergence and response latency of the groups, and global test accuracy,
// as λ grows (§6.2, Fig. 9).
func Fig9(seed int64, scale Scale) []Fig9Row {
	var rows []Fig9Row
	for _, lambda := range Fig9Lambdas {
		cfg := flConfig(seed, scale, lambda, false)
		// A wide RT threshold lets λ really trade latency for balance.
		cfg.RTThreshold = 60
		pop := rlgPopulation(seed, scale, cfg, true)
		r := runStrategy(pop, "eco-fl")
		rows = append(rows, Fig9Row{
			Lambda:     lambda,
			AvgJS:      r.AvgJS,
			AvgLatency: r.AvgLatency,
			FinalAcc:   r.FinalAccuracy,
			BestAcc:    r.BestAccuracy,
		})
	}
	return rows
}

// PrintCurves renders curve sets as aligned text series.
func PrintCurves(w io.Writer, sets []CurveSet) {
	for _, set := range sets {
		fmt.Fprintf(w, "== %s ==\n", set.Dataset)
		for _, r := range set.Runs {
			fmt.Fprintf(w, "%-14s rounds=%-5d final=%.3f best=%.3f curve=", r.Strategy, r.Rounds, r.FinalAccuracy, r.BestAccuracy)
			for i, p := range r.Curve {
				if i%4 == 0 { // thin the series for readability
					fmt.Fprintf(w, "(%.0fs,%.2f) ", p.Time, p.Accuracy)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// PrintFig9 renders the λ sweep table.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintf(w, "%8s %10s %14s %10s %10s\n", "lambda", "avg-JS", "avg-latency(s)", "final-acc", "best-acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.0f %10.4f %14.2f %10.3f %10.3f\n", r.Lambda, r.AvgJS, r.AvgLatency, r.FinalAcc, r.BestAcc)
	}
}
