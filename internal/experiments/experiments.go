// Package experiments holds what the scenario harness and the benchmark
// share: Scale and Full, the paper's fleet sizes; BuildPopulation, the one
// fleet builder; and LiveFailover, the pipeline topology's driver. The
// paper's figures and every other study are specs under examples/scenarios.
package experiments

// Scale sizes a simulated fleet: Full is the paper's setup (§6.1: 300
// clients, ≤20 concurrent), which the benchmark replays.
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
	// Partition is "" for the classes-per-client shards, or one of Fig. 8's
	// PartitionRLGIID and PartitionRLGNIID.
	Partition string
}

// Full is the paper-scale configuration.
var Full = Scale{Clients: 300, DatasetSize: 12000, Duration: 4000, EvalInterval: 120, MaxConcurrent: 20, LocalEpochs: 3}
