// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6), shared by the ecofl CLI, the benchmark suite,
// and the integration tests. Each runner returns structured results and can
// render the same rows/series the paper reports. Two things here serve the
// scenario harness as well: BuildPopulation, the one fleet builder, and
// LiveFailover, the pipeline topology's driver. Studies that are not paper
// figures (dropout, churn, Byzantine, failover grids) are sweep specs under
// examples/scenarios, not drivers in this package.
package experiments

// Scale sizes an experiment. Full mirrors the paper's setup (§6.1:
// 300 clients, ≤20 concurrent); Quick is a minutes-scale variant for tests
// and benchmarks that preserves every qualitative relationship.
type Scale struct {
	Clients       int
	DatasetSize   int
	Duration      float64
	EvalInterval  float64
	MaxConcurrent int
	LocalEpochs   int
	// ClassesPerClient is how many classes each client's shard draws from.
	// 0 means the paper's 2 (every figure); the scenario harness's Byzantine
	// sweep shards all 10 so that coordinate-wise robust mixers are judged on
	// the attack, not on a 2-class skew that starves most coordinates of
	// honest gradient even with no attacker.
	ClassesPerClient int
}

// Full is the paper-scale configuration.
var Full = Scale{Clients: 300, DatasetSize: 12000, Duration: 4000, EvalInterval: 120, MaxConcurrent: 20, LocalEpochs: 3}

// Quick preserves the experiment shapes at a fraction of the cost.
var Quick = Scale{Clients: 40, DatasetSize: 2400, Duration: 1100, EvalInterval: 80, MaxConcurrent: 20, LocalEpochs: 2}
