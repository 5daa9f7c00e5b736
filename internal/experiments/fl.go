package experiments

import (
	"math/rand"

	"ecofl/internal/data"
	"ecofl/internal/fl"
	"ecofl/internal/stats"
)

// The response-latency-group partitions of Fig. 8 (Scale.Partition).
const (
	// PartitionRLGIID gives every client an IID shard, whatever its latency
	// group (RLG).
	PartitionRLGIID = "rlg-iid"
	// PartitionRLGNIID correlates data with latency: each RLG's clients draw
	// from their own few classes.
	PartitionRLGNIID = "rlg-niid"
)

// BuildPopulation creates a population on the named dataset preset, sharded
// by the scale's partition. Exported because every harness that replays the
// paper's fleet — the scenario runner and the benchmark — must shard data
// and draw latencies from the same seeded stream to be comparable.
//
// The default partition gives each client ClassesPerClient classes (the
// paper's 2 when 0). An RLG partition first places the clients, whose
// latencies NewPopulation draws, in 5 response-latency groups by K-means,
// then assigns data per group, so that data distribution is (rlg-niid) or is
// not (rlg-iid) correlated with latency.
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
	if scale.Partition == "" {
		classes := scale.ClassesPerClient
		if classes == 0 {
			classes = 2
		}
		shards := data.PartitionByClasses(rng, ds, scale.Clients, classes)
		tx, ty := test.Materialize()
		return fl.NewPopulation(rng, shards, tx, ty, cfg)
	}

	placeholder := data.PartitionIID(rng, ds, scale.Clients)
	tx, ty := test.Materialize()
	pop := fl.NewPopulation(rng, placeholder, tx, ty, cfg)
	lat := make([]float64, len(pop.Clients))
	for i, c := range pop.Clients {
		lat[i] = c.Latency()
	}
	groupOf, _ := stats.KMeans1D(rng, lat, 5)
	var shards []*data.Subset
	if scale.Partition == PartitionRLGNIID {
		shards = data.PartitionRLGNIID(rng, ds, groupOf, 3)
	} else {
		shards = data.PartitionRLGIID(rng, ds, groupOf)
	}
	for i, c := range pop.Clients {
		c.SetShard(shards[i])
	}
	return pop
}
