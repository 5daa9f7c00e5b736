// Package scenario is the declarative experiment harness: a JSON spec
// describes a whole end-to-end run — topology, fleet, aggregation strategy,
// wire codec, fault schedule, and horizon — and a single runner executes it
// while sampling both the domain metrics (accuracy curve, round-time
// quantiles, payload bytes per codec) and the Go runtime (goroutine
// high-water mark, peak heap, GC pause tail), emitting a versioned
// machine-readable report. A spec with a sweep block is a grid of such runs
// reported as one table (sweep.go). It runs specs; measuring one commit
// against another is benchmark/'s job (benchmark/README.md, `compare`).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"ecofl/internal/experiments"
	"ecofl/internal/fl"
	"ecofl/internal/fl/robust"
	"ecofl/internal/simnet"
)

// SpecSchema versions the scenario spec format.
const SpecSchema = "ecofl/scenario/v1"

// Topology names the execution substrate a scenario runs on.
const (
	// TopologyFL is the in-process virtual-time FL simulation
	// (internal/fl): strategies, grouping, dropout and quorum, no sockets.
	TopologyFL = "fl"
	// TopologyFLNet is the loopback client/server federation over the real
	// flnet transport: wire codecs, retries, dedup, and chaos dialers.
	TopologyFLNet = "flnet"
	// TopologyPipeline is the distributed pipeline failover run
	// (experiments.LiveFailover): live migration under link chaos.
	TopologyPipeline = "pipeline"
)

// Spec is one declarative scenario. The zero value is not runnable; load
// specs with Load/Parse, which validate fail-closed.
type Spec struct {
	Schema   string `json:"schema,omitempty"`
	Name     string `json:"name"`
	Topology string `json:"topology"`
	// Seed is the scenario's master seed: dataset sharding, latency draws,
	// strategy rng, and chaos schedules all derive from it.
	Seed int64 `json:"seed"`

	Fleet    FleetSpec    `json:"fleet"`
	Agg      AggSpec      `json:"aggregation"`
	Wire     WireSpec     `json:"wire,omitempty"`
	Faults   []FaultSpec  `json:"faults,omitempty"`
	Churn    ChurnSpec    `json:"churn,omitempty"`
	Attack   AttackSpec   `json:"attack,omitempty"`
	Run      RunSpec      `json:"run"`
	Pipeline PipelineSpec `json:"pipeline,omitempty"`
	Journal  JournalSpec  `json:"journal,omitempty"`
	// Sweep, when present, runs the spec once per combination of its axes'
	// values and reports one table instead of one run's metrics.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// AttackSpec injects Byzantine clients into the run and selects the defense
// posture. A seeded fraction of the fleet corrupts every update it would
// otherwise send honestly (fl.Adversary); the defense block picks the robust
// in-group mixer (fl topology) and the server's adaptive norm gate (flnet
// topology). The zero value disables both attack and defense.
type AttackSpec struct {
	// Fraction of the fleet compromised, in [0, 1]. 0 disables the attack
	// (a defense may still be attached — the nop-discipline configuration).
	Fraction float64 `json:"fraction,omitempty"`
	// Mode is one of fl.AdversaryModes(): sign-flip, noise, zero, nan,
	// drift. Required whenever fraction is positive.
	Mode string `json:"mode,omitempty"`
	// Scale is the corruption gain (mode-specific; 0 means 1).
	Scale   float64     `json:"scale,omitempty"`
	Defense DefenseSpec `json:"defense,omitempty"`
}

// DefenseSpec selects the countermeasures.
type DefenseSpec struct {
	// Aggregator is a name robust.ByName accepts: mean, median, trimmed,
	// norm-clip, krum. Empty keeps the legacy weighted mean. fl topology
	// only — the flnet server's asynchronous mixer is defended by the norm
	// gate instead.
	Aggregator string `json:"aggregator,omitempty"`
	// Trim parameterizes the trimmed mean (fraction cut per tail,
	// in [0, 0.5)); 0 means the aggregator's default.
	Trim float64 `json:"trim,omitempty"`
	// NormGate arms the flnet server's adaptive update-norm gate
	// (quarantine pushes whose delta norm is an outlier against the
	// trailing honest distribution). flnet topology only.
	NormGate bool `json:"norm_gate,omitempty"`
}

// enabled reports whether the spec attacks the run or arms any defense.
func (a AttackSpec) enabled() bool {
	return a.Fraction > 0 || a.Defense.Aggregator != "" || a.Defense.NormGate
}

// Churn model names accepted by ChurnSpec.Model.
const (
	// ChurnDiurnal generates per-device day/night on/off traces
	// (device.Diurnal).
	ChurnDiurnal = "diurnal"
	// ChurnSessions generates exponential session-length traces
	// (device.Sessions).
	ChurnSessions = "sessions"
	// ChurnTrace replays a recorded trace file (device.LoadTraceSet).
	ChurnTrace = "trace"
)

// ChurnSpec attaches device availability to the run: clients come and go on
// seeded availability traces (internal/device) instead of being always-on.
// In the fl topology traces drive mid-round departures, re-admission and
// quorum accounting; in the flnet topology they gate which clients push each
// round, and LeaseTTLS adds lease-based membership on the server (expired
// leases are reaped between rounds, forcing returning clients through the
// re-sync path). The zero value disables churn entirely.
type ChurnSpec struct {
	// Model selects the availability model: diurnal, sessions, or trace.
	// Empty disables churn.
	Model string `json:"model,omitempty"`
	// PeriodS / DutyCycle parameterize the diurnal model: each device is
	// online for DutyCycle of every PeriodS-second day, phase-shifted per
	// device. PeriodS 0 means a quarter of the run horizon.
	PeriodS   float64 `json:"period_s,omitempty"`
	DutyCycle float64 `json:"duty_cycle,omitempty"`
	// MeanOnlineS / MeanOfflineS parameterize the sessions model
	// (exponential session and gap lengths, virtual seconds).
	MeanOnlineS  float64 `json:"mean_online_s,omitempty"`
	MeanOfflineS float64 `json:"mean_offline_s,omitempty"`
	// TraceFile is the recorded trace set to replay (trace model).
	TraceFile string `json:"trace_file,omitempty"`
	// LeaseTTLS enables lease-based membership on the flnet server with the
	// given TTL in virtual seconds (each push round advances the membership
	// clock one second). 0 leaves membership off.
	LeaseTTLS float64 `json:"lease_ttl_s,omitempty"`
}

// enabled reports whether the spec attaches any availability model.
func (c ChurnSpec) enabled() bool { return c.Model != "" }

// JournalSpec attaches the flight recorder (internal/obs/journal) to the
// run: every fault-path decision is journaled, the report gains an
// event-count summary, and a failing run dumps the tail of the merged
// timeline for forensics.
type JournalSpec struct {
	Enabled bool `json:"enabled,omitempty"`
	// Capacity bounds each recorder ring (events). 0 means the journal
	// package default.
	Capacity int `json:"capacity,omitempty"`
}

// FleetSpec sizes the client fleet and its compute/latency distribution.
type FleetSpec struct {
	Clients     int    `json:"clients"`
	Dataset     string `json:"dataset,omitempty"` // mnist (default), fashion-mnist, cifar10
	DatasetSize int    `json:"dataset_size,omitempty"`
	// ClassesPerClient is how many of the dataset's 10 classes each client's
	// shard draws from. 0 means the paper's 2-class non-IID partition.
	ClassesPerClient int `json:"classes_per_client,omitempty"`
	// Partition replaces the classes-per-client shards with one of Fig. 8's
	// response-latency-group partitions: rlg-iid or rlg-niid
	// (experiments.BuildPopulation).
	Partition string `json:"partition,omitempty"`
	// MaxConcurrent caps clients training at once (fl topology).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	LocalEpochs   int `json:"local_epochs,omitempty"`
	// MeanDelay/StdDelay parameterize the response-delay distribution the
	// fleet's base latencies are drawn from (virtual seconds, fl topology).
	MeanDelay float64 `json:"mean_delay_s,omitempty"`
	StdDelay  float64 `json:"std_delay_s,omitempty"`
}

// AggSpec selects the aggregation strategy and its knobs.
type AggSpec struct {
	// Strategy is one of fl.StrategyNames(): fedavg, fedasync, tifl, fedat,
	// astraea, eco-fl, eco-fl-nodg. fl topology only: the flnet server is
	// always the asynchronous staleness-aware aggregator, which reads Mu and
	// Alpha and nothing else of this block.
	Strategy string `json:"strategy,omitempty"`
	// Mu is the FedProx proximal coefficient; Alpha the asynchronous mixing
	// weight; Lambda the grouping trade-off of Eq. 4, and RTThreshold the
	// widest latency gap (virtual seconds) between a client and its group's
	// center that Eq. 4 grouping admits (0 means 15).
	Mu          float64 `json:"mu,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"`
	Lambda      float64 `json:"lambda,omitempty"`
	RTThreshold float64 `json:"rt_threshold,omitempty"`
	// NumGroups / GroupSyncEvery shape the hierarchical strategies.
	NumGroups      int `json:"num_groups,omitempty"`
	GroupSyncEvery int `json:"group_sync_every,omitempty"`
	// DropoutProb and Quorum drive the fault-resilience machinery of the fl
	// topology (per-round client dropout, quorum-cut rounds).
	DropoutProb float64 `json:"dropout_prob,omitempty"`
	Quorum      float64 `json:"quorum,omitempty"`
	// Dynamic enables collaborative-degree re-draws (the paper's dynamic
	// setting).
	Dynamic bool `json:"dynamic,omitempty"`
}

// Wire codec names accepted by WireSpec.Codec.
const (
	CodecRaw    = "raw"
	CodecQuant  = "quant"
	CodecSparse = "sparse"
	// CodecMixed cycles clients through raw/quant/sparse, so one scenario
	// exercises (and reports bytes/round for) every codec.
	CodecMixed = "mixed"
)

// WireSpec selects the flnet push payload codec (flnet topology only).
type WireSpec struct {
	Codec string `json:"codec,omitempty"` // raw (default), quant, sparse, mixed
	// TopK caps coordinates per sparse push (sparse/mixed codec). 0 means
	// 1/8 of the model.
	TopK int `json:"top_k,omitempty"`
}

// FaultSpec is one entry of the fault schedule, reusing the deterministic
// simnet chaos modes. In the flnet topology each entry owns the links of the
// clients it names (empty Clients = every client); the pipeline topology
// takes at most one entry, which every inter-stage link runs.
type FaultSpec struct {
	Mode simnet.FaultMode `json:"mode"`
	// Prob is the per-write trigger probability in [0, 1].
	Prob float64 `json:"prob"`
	// After exempts the first After writes of each link.
	After int `json:"after,omitempty"`
	// StallMS / PartitionMS size the stall freeze and partition outage.
	StallMS     int `json:"stall_ms,omitempty"`
	PartitionMS int `json:"partition_ms,omitempty"`
	// Clients restricts the faulty links to these client IDs (flnet topology).
	Clients []int `json:"clients,omitempty"`
}

// RunSpec sets the scenario horizon.
type RunSpec struct {
	// Duration and EvalInterval are virtual seconds (fl topology).
	Duration     float64 `json:"duration_s,omitempty"`
	EvalInterval float64 `json:"eval_interval_s,omitempty"`
	// Rounds drives the flnet topology (push rounds per client) and the
	// pipeline topology (sync-rounds trained).
	Rounds int `json:"rounds,omitempty"`
}

// PipelineSpec configures the pipeline topology's failover run.
type PipelineSpec struct {
	MicroBatchSize int `json:"micro_batch_size,omitempty"`
	// FailRound / FailDevice schedule a stage-device kill; FailRound < 0
	// disables the kill.
	FailRound  int `json:"fail_round,omitempty"`
	FailDevice int `json:"fail_device,omitempty"`
}

// Load reads and validates a scenario spec file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	spec, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return spec, nil
}

// Parse decodes and validates a scenario spec. Unknown fields are rejected —
// a typoed knob must fail loudly, not silently run the default.
func Parse(b []byte) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the spec fail-closed: anything out of range or unknown is
// an error naming the offending field and value.
func (s *Spec) Validate() error {
	if s.Schema != "" && s.Schema != SpecSchema {
		return fmt.Errorf("schema %q is not %q", s.Schema, SpecSchema)
	}
	if s.Name == "" {
		return fmt.Errorf("name must be set")
	}
	switch s.Topology {
	case TopologyFL, TopologyFLNet, TopologyPipeline:
	case "":
		return fmt.Errorf("topology must be set (fl, flnet or pipeline)")
	default:
		return fmt.Errorf("unknown topology %q (fl, flnet or pipeline)", s.Topology)
	}
	if err := s.Fleet.validate(s.Topology); err != nil {
		return err
	}
	if err := s.Agg.validate(s.Topology); err != nil {
		return err
	}
	if err := s.Wire.validate(); err != nil {
		return err
	}
	for i, f := range s.Faults {
		if err := f.validate(i); err != nil {
			return err
		}
	}
	if err := s.Churn.validate(); err != nil {
		return err
	}
	if err := s.Attack.validate(); err != nil {
		return err
	}
	if err := s.Run.validate(s.Topology); err != nil {
		return err
	}
	if s.Journal.Capacity < 0 {
		return fmt.Errorf("journal.capacity must not be negative (got %d)", s.Journal.Capacity)
	}
	if err := s.unreadField(); err != nil || s.Sweep == nil {
		return err
	}
	_, err := s.cells()
	return err
}

// unreadField reports the first block or field the spec sets that its
// topology never reads. A knob that is silently ignored is worse than a
// typo: the run succeeds and means something else (and a sweep over it
// prints a table of identical rows), so it fails closed like one.
func (s *Spec) unreadField() error {
	reads := fl.StrategyReads(s.Agg.Strategy) // before the fl below shadows the package
	fl, net, pipe := s.Topology == TopologyFL, s.Topology == TopologyFLNet, s.Topology == TopologyPipeline
	a, r := s.Agg, s.Run
	type knob struct {
		name string
		set  bool
	}
	for _, k := range []struct {
		knob
		read bool
	}{
		{knob{"aggregation.mu", a.Mu != 0}, reads.Mu},
		{knob{"aggregation.alpha", a.Alpha != 0}, reads.Alpha},
		{knob{"aggregation.lambda", a.Lambda != 0}, reads.Lambda},
		{knob{"aggregation.rt_threshold", a.RTThreshold != 0}, reads.RTThreshold},
		{knob{"aggregation.num_groups", a.NumGroups != 0}, reads.NumGroups},
		{knob{"aggregation.group_sync_every", a.GroupSyncEvery != 0}, reads.GroupSyncEvery},
		{knob{"aggregation.dropout_prob", a.DropoutProb != 0}, reads.DropoutProb},
		{knob{"aggregation.quorum", a.Quorum != 0}, reads.Quorum},
	} {
		if fl && k.set && !k.read {
			return fmt.Errorf("%s is set but the %s strategy never reads it", k.name, a.Strategy)
		}
	}
	if f := s.Fleet; f.Partition != "" && f.ClassesPerClient != 0 {
		return fmt.Errorf("fleet.classes_per_client is set but the %s partition never reads it", f.Partition)
	}
	for _, k := range []knob{
		{"wire", (fl || pipe) && s.Wire != WireSpec{}},
		{"pipeline", (fl || net) && s.Pipeline != PipelineSpec{}},
		{"faults", fl && len(s.Faults) > 0},
		{"run.rounds", fl && r.Rounds != 0},
		{"churn.lease_ttl_s", fl && s.Churn.LeaseTTLS != 0},
		{"aggregation.strategy", net && a.Strategy != ""},
		{"aggregation.lambda", net && a.Lambda != 0},
		{"aggregation.rt_threshold", net && a.RTThreshold != 0},
		{"aggregation.num_groups", net && a.NumGroups != 0},
		{"aggregation.group_sync_every", net && a.GroupSyncEvery != 0},
		{"aggregation.dropout_prob", net && a.DropoutProb != 0},
		{"aggregation.quorum", net && a.Quorum != 0},
		{"aggregation.dynamic", net && a.Dynamic},
		{"fleet.max_concurrent", net && s.Fleet.MaxConcurrent != 0},
		{"run.duration_s", net && r.Duration != 0},
		{"run.eval_interval_s", net && r.EvalInterval != 0},
		{"fleet", pipe && s.Fleet != FleetSpec{}},
		{"aggregation", pipe && a != AggSpec{}},
		{"churn", pipe && s.Churn.enabled()},
		{"attack", pipe && s.Attack.enabled()},
		// The flnet server's asynchronous mixer is defended by the norm gate,
		// the simulator's committees by a robust aggregator.
		{"attack.defense.aggregator", net && s.Attack.Defense.Aggregator != ""},
		{"attack.defense.norm_gate", fl && s.Attack.Defense.NormGate},
		// Every inter-stage link runs the one entry; there are no clients
		// to restrict it to.
		{"faults[1]", pipe && len(s.Faults) > 1},
		{"faults[0].clients", pipe && len(s.Faults) > 0 && len(s.Faults[0].Clients) > 0},
	} {
		if k.set {
			return fmt.Errorf("%s is set but the %s topology never reads it", k.name, s.Topology)
		}
	}
	return nil
}

func (f FleetSpec) validate(topology string) error {
	if topology != TopologyPipeline && f.Clients <= 0 {
		return fmt.Errorf("fleet.clients must be positive (got %d)", f.Clients)
	}
	switch f.Dataset {
	case "", "mnist", "fashion-mnist", "cifar10":
	default:
		return fmt.Errorf("unknown fleet.dataset %q (mnist, fashion-mnist, cifar10)", f.Dataset)
	}
	if f.DatasetSize < 0 {
		return fmt.Errorf("fleet.dataset_size must not be negative (got %d)", f.DatasetSize)
	}
	switch f.Partition {
	case "", experiments.PartitionRLGIID, experiments.PartitionRLGNIID:
	default:
		return fmt.Errorf("unknown fleet.partition %q (rlg-iid, rlg-niid)", f.Partition)
	}
	if f.ClassesPerClient < 0 || f.ClassesPerClient > 10 {
		return fmt.Errorf("fleet.classes_per_client must be in [0, 10] (got %d)", f.ClassesPerClient)
	}
	// The partitioner cuts clients × classes shards and needs a sample in each.
	shards := f.Clients * f.ClassesPerClient
	if f.ClassesPerClient == 0 {
		shards = f.Clients * 2
	}
	if f.DatasetSize > 0 && f.DatasetSize < shards {
		return fmt.Errorf("fleet.dataset_size %d is smaller than the %d shards of %d clients", f.DatasetSize, shards, f.Clients)
	}
	if f.MaxConcurrent < 0 {
		return fmt.Errorf("fleet.max_concurrent must not be negative (got %d)", f.MaxConcurrent)
	}
	if f.LocalEpochs < 0 {
		return fmt.Errorf("fleet.local_epochs must not be negative (got %d)", f.LocalEpochs)
	}
	if f.MeanDelay < 0 || f.StdDelay < 0 {
		return fmt.Errorf("fleet delay parameters must not be negative (mean %g, std %g)", f.MeanDelay, f.StdDelay)
	}
	return nil
}

func (a AggSpec) validate(topology string) error {
	if topology == TopologyFL {
		if a.Strategy == "" {
			return fmt.Errorf("aggregation.strategy must be set for the fl topology")
		}
		if !slices.Contains(fl.StrategyNames(), a.Strategy) {
			return fmt.Errorf("unknown aggregation.strategy %q", a.Strategy)
		}
	}
	if a.Mu < 0 {
		return fmt.Errorf("aggregation.mu must not be negative (got %g)", a.Mu)
	}
	if a.Alpha < 0 || a.Alpha > 1 {
		return fmt.Errorf("aggregation.alpha must be in [0, 1] (got %g)", a.Alpha)
	}
	if a.Lambda < 0 {
		return fmt.Errorf("aggregation.lambda must not be negative (got %g)", a.Lambda)
	}
	if a.RTThreshold < 0 {
		return fmt.Errorf("aggregation.rt_threshold must not be negative (got %g)", a.RTThreshold)
	}
	if a.NumGroups < 0 {
		return fmt.Errorf("aggregation.num_groups must not be negative (got %d)", a.NumGroups)
	}
	if a.GroupSyncEvery < 0 {
		return fmt.Errorf("aggregation.group_sync_every must not be negative (got %d)", a.GroupSyncEvery)
	}
	if a.DropoutProb < 0 || a.DropoutProb > 1 {
		return fmt.Errorf("aggregation.dropout_prob must be in [0, 1] (got %g)", a.DropoutProb)
	}
	if a.Quorum < 0 || a.Quorum > 1 {
		return fmt.Errorf("aggregation.quorum must be in [0, 1] (got %g)", a.Quorum)
	}
	return nil
}

func (w WireSpec) validate() error {
	switch w.Codec {
	case "", CodecRaw, CodecQuant, CodecSparse, CodecMixed:
	default:
		return fmt.Errorf("unknown wire.codec %q (raw, quant, sparse, mixed)", w.Codec)
	}
	if w.TopK < 0 {
		return fmt.Errorf("wire.top_k must not be negative (got %d)", w.TopK)
	}
	return nil
}

func (f FaultSpec) validate(i int) error {
	// Mode is validated by FaultMode.UnmarshalText at decode time; a
	// hand-constructed Spec still goes through the range check here.
	if f.Mode < simnet.FaultNone || f.Mode > simnet.FaultPartition {
		return fmt.Errorf("faults[%d].mode %d is not a known fault mode", i, int(f.Mode))
	}
	if f.Prob < 0 || f.Prob > 1 {
		return fmt.Errorf("faults[%d].prob must be in [0, 1] (got %g)", i, f.Prob)
	}
	if f.After < 0 {
		return fmt.Errorf("faults[%d].after must not be negative (got %d)", i, f.After)
	}
	if f.StallMS < 0 || f.PartitionMS < 0 {
		return fmt.Errorf("faults[%d] durations must not be negative (stall %dms, partition %dms)", i, f.StallMS, f.PartitionMS)
	}
	if (f.Mode == simnet.FaultStall && f.StallMS == 0) || (f.Mode == simnet.FaultPartition && f.PartitionMS == 0) {
		return fmt.Errorf("faults[%d].%s_ms must be positive for the %s mode (a fault of no length injects nothing)", i, f.Mode, f.Mode)
	}
	for _, id := range f.Clients {
		if id < 0 {
			return fmt.Errorf("faults[%d].clients contains negative id %d", i, id)
		}
	}
	return nil
}

func (c ChurnSpec) validate() error {
	if c.LeaseTTLS < 0 {
		return fmt.Errorf("churn.lease_ttl_s must not be negative (got %g)", c.LeaseTTLS)
	}
	switch c.Model {
	case "":
		return nil
	case ChurnDiurnal, ChurnSessions, ChurnTrace:
	default:
		return fmt.Errorf("unknown churn.model %q (diurnal, sessions, trace)", c.Model)
	}
	if c.PeriodS < 0 {
		return fmt.Errorf("churn.period_s must not be negative (got %g)", c.PeriodS)
	}
	if c.DutyCycle < 0 || c.DutyCycle > 1 {
		return fmt.Errorf("churn.duty_cycle must be in [0, 1] (got %g)", c.DutyCycle)
	}
	if c.Model == ChurnDiurnal && c.DutyCycle == 0 {
		return fmt.Errorf("churn.duty_cycle must be positive for the diurnal model")
	}
	if c.MeanOnlineS < 0 || c.MeanOfflineS < 0 {
		return fmt.Errorf("churn session means must not be negative (online %g, offline %g)", c.MeanOnlineS, c.MeanOfflineS)
	}
	if c.Model == ChurnSessions && (c.MeanOnlineS == 0 || c.MeanOfflineS == 0) {
		return fmt.Errorf("churn.mean_online_s and churn.mean_offline_s must be positive for the sessions model")
	}
	if c.Model == ChurnTrace && c.TraceFile == "" {
		return fmt.Errorf("churn.trace_file must be set for the trace model")
	}
	if c.Model != ChurnTrace && c.TraceFile != "" {
		return fmt.Errorf("churn.trace_file is only valid with the trace model (got model %q)", c.Model)
	}
	return nil
}

func (a AttackSpec) validate() error {
	if !a.enabled() {
		if a.Mode != "" || a.Scale != 0 || a.Defense.Trim != 0 {
			return fmt.Errorf("attack parameters set without attack.fraction or a defense (mode %q, scale %g, trim %g)",
				a.Mode, a.Scale, a.Defense.Trim)
		}
		return nil
	}
	if a.Fraction < 0 || a.Fraction > 1 {
		return fmt.Errorf("attack.fraction must be in [0, 1] (got %g)", a.Fraction)
	}
	if a.Fraction > 0 {
		if a.Mode == "" {
			return fmt.Errorf("attack.mode must be set when attack.fraction is positive (%v)", fl.AdversaryModes())
		}
		if !fl.ValidAdversaryMode(a.Mode) {
			return fmt.Errorf("unknown attack.mode %q (%v)", a.Mode, fl.AdversaryModes())
		}
	}
	if a.Scale < 0 {
		return fmt.Errorf("attack.scale must not be negative (got %g)", a.Scale)
	}
	if d := a.Defense; d.Aggregator != "" {
		if _, err := robust.ByName(d.Aggregator, d.Trim); err != nil {
			return fmt.Errorf("attack.defense.aggregator: %w", err)
		}
	}
	if a.Defense.Trim < 0 || a.Defense.Trim >= 0.5 {
		return fmt.Errorf("attack.defense.trim must be in [0, 0.5) (got %g)", a.Defense.Trim)
	}
	return nil
}

func (r RunSpec) validate(topology string) error {
	if r.Duration < 0 {
		return fmt.Errorf("run.duration_s must not be negative (got %g)", r.Duration)
	}
	if r.EvalInterval < 0 {
		return fmt.Errorf("run.eval_interval_s must not be negative (got %g)", r.EvalInterval)
	}
	if r.Rounds < 0 {
		return fmt.Errorf("run.rounds must not be negative (got %d)", r.Rounds)
	}
	switch topology {
	case TopologyFL:
		if r.Duration == 0 {
			return fmt.Errorf("run.duration_s must be positive for the fl topology")
		}
	case TopologyFLNet, TopologyPipeline:
		if r.Rounds == 0 {
			return fmt.Errorf("run.rounds must be positive for the %s topology", topology)
		}
	}
	return nil
}

// plan materializes one fault entry into a simnet plan for client id's link,
// deriving the chaos seed from the scenario seed and the client id so every
// link gets an independent but reproducible schedule. (The pipeline topology
// reseeds the plan per inter-stage link on its own lane.)
func (f FaultSpec) plan(scenarioSeed int64, id int) simnet.FaultPlan {
	return simnet.FaultPlan{
		Seed:      scenarioSeed + 1000 + int64(id),
		Mode:      f.Mode,
		Prob:      f.Prob,
		After:     f.After,
		Stall:     time.Duration(f.StallMS) * time.Millisecond,
		Partition: time.Duration(f.PartitionMS) * time.Millisecond,
	}
}

// appliesTo reports whether the fault entry covers client id.
func (f FaultSpec) appliesTo(id int) bool {
	return len(f.Clients) == 0 || slices.Contains(f.Clients, id)
}
