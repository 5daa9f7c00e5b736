package scenario

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"ecofl/internal/device"
	"ecofl/internal/experiments"
	"ecofl/internal/fl"
	"ecofl/internal/fl/robust"
	"ecofl/internal/flnet"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
	"ecofl/internal/simnet"
)

// RunOptions carries per-invocation provenance. GitSHA and Now are recorded
// verbatim into the report — the runner never shells out to git or reads the
// wall clock for provenance, so reports built in tests or hermetic
// environments stay reproducible.
type RunOptions struct {
	GitSHA string
	// Now is the capture timestamp (unix seconds) stamped into the report; 0
	// leaves the field out.
	Now int64
	// DumpTo receives the tail of a journaled scenario's merged timeline when
	// the run ends, failed or not. Nil means os.Stderr.
	DumpTo io.Writer
}

// sampleEvery is the runtime sampler's cadence: frequent enough to catch a
// goroutine spike inside a single flnet round.
const sampleEvery = 50 * time.Millisecond

// dumpTail is how many trailing journal events a journaled scenario prints.
const dumpTail = 40

// journals holds the flight recorders a journaled scenario run attaches;
// zero value (journaling disabled) is inert — every method on nil recorders
// is a nop.
type journals struct {
	rec   *journal.Recorder // fl / pipeline topologies: one local lane
	fleet *journal.Fleet    // flnet topology: server + imported client lanes
}

// newJournals builds the recorders the spec's topology needs.
func newJournals(spec *Spec) journals {
	if !spec.Journal.Enabled {
		return journals{}
	}
	capacity := spec.Journal.Capacity // 0: the journal package's default
	var j journals
	switch spec.Topology {
	case TopologyFLNet:
		j.fleet = journal.NewFleet(capacity, journal.New(-1, capacity))
	case TopologyFL:
		// Clockless: the simulation stamps virtual time via RecordAt.
		j.rec = journal.NewClock(0, capacity, nil)
	default:
		j.rec = journal.New(0, capacity)
	}
	return j
}

func (j journals) enabled() bool { return j.rec != nil || j.fleet != nil }

// events returns the merged causal timeline across every attached lane.
func (j journals) events() []journal.Event {
	if j.fleet != nil {
		return j.fleet.Events()
	}
	return j.rec.Events()
}

// Run executes one validated scenario end to end and returns its report: a
// sweep's table (sweep.go), or one run's measurements. Domain metrics
// (accuracy, round times, wire bytes) come from the run itself and from
// before/after deltas of the process-wide metrics registry; runtime health
// (goroutine HWM, peak heap, GC pause tail) comes from a RuntimeSampler that
// samples throughout the run.
func Run(spec *Spec, opts RunOptions) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	rep := &Report{
		Schema:      ReportSchema,
		Scenario:    spec.Name,
		Topology:    spec.Topology,
		Seed:        spec.Seed,
		GitSHA:      opts.GitSHA,
		StartedUnix: opts.Now,
		Metrics:     make(map[string]float64),
	}
	if spec.Sweep != nil {
		return runSweep(spec, rep, opts)
	}

	// The runtime sampler lives on a private registry so repeated runs in
	// one process each get fresh high-water marks.
	reg := metrics.NewRegistry()
	rs := metrics.NewRuntimeSampler(reg)
	stop := rs.Start(sampleEvery)
	t0 := time.Now()

	jn := newJournals(spec)
	var err error
	switch spec.Topology {
	case TopologyFL:
		err = runFL(spec, rep, rs, jn)
	case TopologyFLNet:
		err = runFLNet(spec, rep, rs, jn)
	case TopologyPipeline:
		err = runPipeline(spec, rep, jn)
	case TopologySchedule:
		err = runSchedule(spec, rep)
	}
	stop()
	rs.Sample() // end-of-run state: the freshest peaks
	if jn.enabled() {
		// The tail of the timeline: the forensic record of what led up to a
		// failure, and after a success the heal steps and survivor layout
		// the report's counters only count.
		w := opts.DumpTo
		if w == nil {
			w = os.Stderr
		}
		evs := jn.events()
		tail := journal.Tail(evs, dumpTail)
		fmt.Fprintf(w, "scenario %s: flight recorder (last %d of %d events):\n%s",
			spec.Name, len(tail), len(evs), journal.Timeline(tail))
		rep.JournalEvents = journal.CountByKind(evs)
		rep.setMetric("journal_events_total", float64(len(evs)))
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	rep.ElapsedSeconds = time.Since(t0).Seconds()
	rep.setMetric("goroutine_hwm", rs.GoroutineHWM())
	rep.setMetric("peak_heap_bytes", rs.PeakHeapBytes())
	// GC pause p99 is process-lifetime (the runtime histogram cannot be
	// reset); still worth recording as an upper bound on this run's tail.
	if p99 := rs.GCPauseP99(); !math.IsNaN(p99) {
		rep.setMetric("gc_pause_p99_s", p99)
	}
	return rep, nil
}

// scaleFromSpec translates the fleet spec into the fields of the experiments
// scale that BuildPopulation reads (the run's horizon and training knobs
// reach it in the fl.Config). The dataset size defaults to 40 samples per
// client — a shard big enough to train on, small enough for a CI smoke run.
func scaleFromSpec(spec *Spec) experiments.Scale {
	f := spec.Fleet
	size := f.DatasetSize
	if size == 0 {
		size = 40 * f.Clients
	}
	return experiments.Scale{Clients: f.Clients, DatasetSize: size, ClassesPerClient: f.ClassesPerClient, Partition: f.Partition}
}

// flConfigFromSpec builds the simulation config. Zero-valued knobs fall to
// the paper defaults via fl.Config's own withDefaults.
func flConfigFromSpec(spec *Spec) fl.Config {
	cfg := fl.Config{
		Seed:            spec.Seed,
		MaxConcurrent:   spec.Fleet.MaxConcurrent,
		LocalEpochs:     spec.Fleet.LocalEpochs,
		BatchSize:       10,
		LR:              0.05,
		Mu:              spec.Agg.Mu,
		Alpha:           spec.Agg.Alpha,
		Lambda:          spec.Agg.Lambda,
		RTThreshold:     spec.Agg.RTThreshold,
		NumGroups:       spec.Agg.NumGroups,
		GroupSyncEvery:  spec.Agg.GroupSyncEvery,
		Duration:        spec.Run.Duration,
		EvalInterval:    spec.Run.EvalInterval,
		Dynamic:         spec.Agg.Dynamic,
		DropoutProb:     spec.Agg.DropoutProb,
		Quorum:          spec.Agg.Quorum,
		DynamicInterval: spec.Run.Duration / 25,
		MeanDelay:       spec.Fleet.MeanDelay,
		StdDelay:        spec.Fleet.StdDelay,
	}
	if a := spec.Attack; a.Fraction > 0 {
		// pop.LocalTrain corrupts compromised clients' updates before they
		// reach the mixer (fl) or the wire (flnet: exactly what a hijacked
		// client process would send the server's ingest gate). Seed 0 derives
		// the adversary's own rng lane from cfg.Seed, so the compromised set
		// is reproducible per scenario seed.
		cfg.Adversary = &fl.Adversary{Fraction: a.Fraction, Mode: a.Mode, Scale: a.Scale}
	}
	return cfg
}

// churnSeedOffset separates the availability-trace seed lane from the
// scenario's other derived seeds (chaos uses +1000+id, datasets use the seed
// itself), so attaching churn never perturbs them. 7000 is the lane the
// published churn table (EXPERIMENTS.md) was drawn on.
const churnSeedOffset = 7000

// churnTraces materializes the spec's availability model into one trace per
// client over the given horizon (virtual seconds). Returns nil when the spec
// attaches no model.
func churnTraces(spec *Spec, horizon float64) (*device.TraceSet, error) {
	c := spec.Churn
	seed := spec.Seed + churnSeedOffset
	switch c.Model {
	case ChurnDiurnal:
		period := c.PeriodS
		if period == 0 {
			period = horizon / 4
		}
		return device.Diurnal(seed, spec.Fleet.Clients, device.DiurnalModel{
			Period: period, DutyCycle: c.DutyCycle, Horizon: horizon,
		})
	case ChurnSessions:
		return device.Sessions(seed, spec.Fleet.Clients, device.SessionModel{
			MeanOnline: c.MeanOnlineS, MeanOffline: c.MeanOfflineS, Horizon: horizon,
		})
	case ChurnTrace:
		return device.LoadTraceSet(c.TraceFile)
	}
	return nil, nil
}

// leaseClock is the virtual membership clock for flnet scenario runs: the
// round loop advances it one second per push round, so lease TTLs are
// expressed in rounds-worth of virtual time and expiry is deterministic
// regardless of how fast the loopback transport runs.
type leaseClock struct {
	mu sync.Mutex
	t  time.Time
}

func (lc *leaseClock) Now() time.Time {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.t
}

func (lc *leaseClock) Advance(d time.Duration) {
	lc.mu.Lock()
	lc.t = lc.t.Add(d)
	lc.mu.Unlock()
}

// ---------------------------------------------------------------- fl

// runFL executes the in-process virtual-time simulation.
func runFL(spec *Spec, rep *Report, rs *metrics.RuntimeSampler, jn journals) error {
	cfg := flConfigFromSpec(spec)
	cfg.Journal = jn.rec
	var err error
	if cfg.Churn, err = churnTraces(spec, cfg.Duration); err != nil {
		return err
	}
	if name := spec.Attack.Defense.Aggregator; name != "" {
		if cfg.Robust, err = robust.ByName(name, spec.Attack.Defense.Trim); err != nil {
			return err
		}
	}
	pop := experiments.BuildPopulation(spec.Seed, spec.Fleet.Dataset, scaleFromSpec(spec), cfg)
	before := snapshotMap(metrics.Default)
	r, err := fl.RunByName(pop, spec.Agg.Strategy)
	if err != nil {
		return err
	}
	rs.Sample()
	after := snapshotMap(metrics.Default)

	rep.Curve = r.Curve
	rep.setMetric("final_accuracy", r.FinalAccuracy)
	rep.setMetric("best_accuracy", r.BestAccuracy)
	rep.setMetric("rounds", float64(r.Rounds))
	rep.setMetric("dropouts", float64(r.Dropouts))
	rep.setMetric("quorum_discarded", float64(r.QuorumDiscarded))
	rep.setMetric("quorum_failed_rounds", float64(r.QuorumFailures))
	rep.setMetric("dropped_clients", float64(r.Dropped))
	if spec.Churn.enabled() {
		rep.setMetric("churn_departures", float64(r.ChurnDepartures))
		rep.setMetric("readmissions", float64(r.Readmissions))
	}
	if spec.Attack.enabled() {
		rep.setMetric("adversary_corruptions", float64(r.Corrupted))
		rep.setMetric("norm_clipped", float64(r.Clipped))
	}
	if r.AvgJS > 0 || r.AvgLatency > 0 {
		rep.setMetric("avg_group_js", r.AvgJS)
		rep.setMetric("avg_group_latency_s", r.AvgLatency)
	}

	// Round-time quantiles from the per-strategy virtual-time histogram:
	// the counters are process-global, so quantiles come from the bucket
	// deltas of exactly this run.
	hist := fmt.Sprintf("ecofl_fl_round_virtual_seconds{strategy=%q}", r.Strategy)
	p50, p95, ok := histDeltaQuantiles(before, after, hist)
	if !ok {
		rep.warnf("round-time histogram %s recorded no observations", hist)
	} else {
		rep.setMetric("round_time_p50_s", p50)
		rep.setMetric("round_time_p95_s", p95)
	}
	return nil
}

// ---------------------------------------------------------------- flnet

// Client-side fault tolerance for scenario runs: tight enough that a chaos
// scenario finishes in CI time, generous enough that a clean loopback push
// never trips it.
const (
	flnetTimeout     = 5 * time.Second
	flnetRetries     = 3
	flnetBackoffBase = 20 * time.Millisecond
	flnetBackoffMax  = 250 * time.Millisecond
)

// runFLNet executes the loopback client/server federation over the real
// transport. The driving loop is sequential — selection, local training and
// pushes happen in client order off one rng — so the accuracy curve is
// deterministic for a given spec; chaos (when scheduled) perturbs delivery,
// not the training stream, and push dedup keeps retried updates exactly-once.
func runFLNet(spec *Spec, rep *Report, rs *metrics.RuntimeSampler, jn journals) error {
	pop := experiments.BuildPopulation(spec.Seed, spec.Fleet.Dataset, scaleFromSpec(spec), flConfigFromSpec(spec))
	alpha := spec.Agg.Alpha
	if alpha == 0 {
		alpha = 0.5
	}

	// Availability traces gate which clients push each round: trace second r
	// maps to push round r, so a device offline at [10, 20) sits out rounds
	// 10–19 and its lease (when enabled) lapses on the virtual clock below.
	traces, err := churnTraces(spec, float64(spec.Run.Rounds))
	if err != nil {
		return err
	}

	before := snapshotMap(metrics.Default)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srvOpts := flnet.ServerOptions{Alpha: alpha, Journal: jn.fleet,
		NormGate: spec.Attack.Defense.NormGate}
	var clock *leaseClock
	if ttl := spec.Churn.LeaseTTLS; ttl > 0 {
		// Lease-based membership on the virtual clock: the round loop advances
		// it one second per round and reaps, so a client that sits out more
		// than TTL rounds loses its session and re-syncs on return.
		clock = &leaseClock{t: time.Unix(0, 0)}
		srvOpts.LeaseTTL = time.Duration(ttl * float64(time.Second))
		srvOpts.LeaseNow = clock.Now
	}
	srv, err := flnet.NewServerOpts(ln, pop.GlobalInit(), srvOpts)
	if err != nil {
		ln.Close()
		return err
	}
	defer srv.Close()

	n := len(pop.Clients)
	clients := make([]*flnet.Client, 0, n)
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	var telemetryStops []func()
	defer func() {
		for _, stop := range telemetryStops {
			stop()
		}
	}()
	for i := 0; i < n; i++ {
		o := flnet.Options{
			Timeout:     flnetTimeout,
			MaxRetries:  flnetRetries,
			BackoffBase: flnetBackoffBase,
			BackoffMax:  flnetBackoffMax,
			JitterSeed:  spec.Seed + int64(i) + 1,
		}
		if jn.fleet != nil {
			o.Journal = journal.New(i, spec.Journal.Capacity)
		}
		if chaos := chaosForClient(spec, i); chaos != nil {
			// The chaos state logs injected faults into the client's lane, so
			// cause and recovery land in the same timeline.
			chaos.SetJournal(o.Journal, i)
			o.Dialer = chaos.Dialer(nil)
		}
		cl, err := flnet.DialOptions(srv.Addr(), i, o)
		if err != nil {
			return fmt.Errorf("dial client %d: %w", i, err)
		}
		clients = append(clients, cl)
		if jn.fleet != nil {
			// Piggyback the client journal onto push traffic (a private empty
			// registry: the journal rides along without metric noise).
			telemetryStops = append(telemetryStops,
				cl.EnableTelemetry(metrics.NewRegistry(), nil, "scenario", 0))
		}
	}

	topK := spec.Wire.TopK
	if topK == 0 {
		topK = len(pop.GlobalInit()) / 8
	}
	roundHist := metrics.NewRegistry().Histogram("ecofl_scenario_round_seconds",
		"wall-clock duration of one scenario push round", metrics.DefBuckets)

	rng := rand.New(rand.NewSource(spec.Seed))
	local := make([][]float64, n)
	baseVer := make([]int, n)
	for i := range local {
		local[i] = append([]float64(nil), pop.GlobalInit()...)
	}
	pushFailures := 0
	offlineSkips := 0
	for r := 0; r < spec.Run.Rounds; r++ {
		t0 := time.Now()
		for i, cl := range clients {
			c := pop.Clients[i]
			if !traces.For(i).OnlineAt(float64(r) + 0.5) {
				// The device is off this round: it neither trains nor pushes,
				// and its lease keeps aging toward expiry.
				offlineSkips++
				continue
			}
			upd := pop.LocalTrain(rng, c, local[i], spec.Agg.Mu)
			var w []float64
			var v int
			var err error
			switch clientCodec(spec, i) {
			case CodecQuant:
				w, v, err = cl.PushQuantized(upd, c.Train.Len(), baseVer[i])
			case CodecSparse:
				w, v, err = cl.PushDelta(upd, c.Train.Len(), baseVer[i], topK)
			default:
				w, v, err = cl.Push(upd, c.Train.Len(), baseVer[i])
			}
			if err != nil {
				// Chaos outlasted the retry budget: the client keeps its
				// stale model and re-syncs on its next successful push.
				pushFailures++
				continue
			}
			local[i] = w
			baseVer[i] = v
		}
		if clock != nil {
			clock.Advance(time.Second)
			srv.ReapExpiredLeases()
		}
		roundHist.Observe(time.Since(t0).Seconds())
		rs.Sample()
		w, _ := srv.Snapshot()
		rep.Curve = append(rep.Curve, fl.Point{Time: float64(r + 1), Accuracy: pop.Evaluate(w)})
	}

	var retries, reconnects int64
	for _, cl := range clients {
		rt, rc := cl.Stats()
		retries += rt
		reconnects += rc
	}
	after := snapshotMap(metrics.Default)

	// Validate requires run.rounds > 0, so the curve has a point per round.
	final := rep.Curve[len(rep.Curve)-1].Accuracy
	best := final
	for _, p := range rep.Curve {
		if p.Accuracy > best {
			best = p.Accuracy
		}
	}
	rep.setMetric("final_accuracy", final)
	rep.setMetric("best_accuracy", best)
	rep.setMetric("rounds", float64(spec.Run.Rounds))
	rep.setMetric("pushes", float64(srv.Pushes()))
	rep.setMetric("deduped_pushes", float64(srv.Deduped()))
	rep.setMetric("client_retries", float64(retries))
	rep.setMetric("client_reconnects", float64(reconnects))
	rep.setMetric("push_failures", float64(pushFailures))
	if pushFailures > 0 {
		rep.warnf("%d pushes failed after retries (chaos outlasted the retry budget)", pushFailures)
	}
	if spec.Churn.enabled() {
		rep.setMetric("offline_skips", float64(offlineSkips))
	}
	if spec.Attack.enabled() {
		rep.setMetric("adversary_corruptions", float64(pop.Corruptions()))
		rep.setMetric("quarantined_pushes",
			counterDelta(before, after, `ecofl_flnet_server_quarantined_pushes_total{reason="non-finite"}`)+
				counterDelta(before, after, `ecofl_flnet_server_quarantined_pushes_total{reason="norm"}`))
	}
	if clock != nil {
		rep.setMetric("lease_expired", counterDelta(before, after, "ecofl_flnet_lease_expired_total"))
		rep.setMetric("lease_resyncs", counterDelta(before, after, "ecofl_flnet_client_lease_resyncs_total"))
		rep.setMetric("sessions_final", float64(srv.SessionCount()))
	}
	rep.setMetric("round_time_p50_s", roundHist.Quantile(0.5))
	rep.setMetric("round_time_p95_s", roundHist.Quantile(0.95))
	rep.setMetric("server_bytes_read", counterDelta(before, after, "ecofl_flnet_server_bytes_read_total"))
	rep.setMetric("server_bytes_written", counterDelta(before, after, "ecofl_flnet_server_bytes_written_total"))

	// Bytes per push, per codec: the direct wire-efficiency readout. Only
	// codecs the scenario actually exercised appear in the report.
	for _, codec := range []struct{ spec, label string }{
		{CodecRaw, "raw"}, {CodecQuant, "quantized"}, {CodecSparse, "sparse"},
	} {
		bytes := counterDelta(before, after,
			fmt.Sprintf("ecofl_flnet_server_payload_bytes_total{codec=%q}", codec.label))
		count := counterDelta(before, after,
			fmt.Sprintf("ecofl_flnet_server_push_payload_total{encoding=%q}", codec.label))
		if count > 0 {
			rep.setMetric("push_bytes_total_"+codec.spec, bytes)
			rep.setMetric("bytes_per_push_"+codec.spec, bytes/count)
		}
	}
	return nil
}

// clientCodec resolves which codec client i pushes with.
func clientCodec(spec *Spec, i int) string {
	switch spec.Wire.Codec {
	case CodecMixed:
		return []string{CodecRaw, CodecQuant, CodecSparse}[i%3]
	case "":
		return CodecRaw
	}
	return spec.Wire.Codec
}

// chaosForClient builds client i's link chaos from the first fault entry
// covering it (nil when the link is clean). One Chaos per link: the schedule
// and any open partition window survive reconnects, as in production use.
func chaosForClient(spec *Spec, i int) *simnet.Chaos {
	for _, f := range spec.Faults {
		if f.Mode != simnet.FaultNone && f.Prob > 0 && f.appliesTo(i) {
			return simnet.NewChaos(f.plan(spec.Seed, i))
		}
	}
	return nil
}

// ---------------------------------------------------------------- pipeline

// runPipeline executes the live failover run: a real partitioned model
// trained through the self-healing executor with chaos and a scheduled kill.
func runPipeline(spec *Spec, rep *Report, jn journals) error {
	cfg := &experiments.LiveFailover{
		Seed:           spec.Seed,
		Rounds:         spec.Run.Rounds,
		MicroBatchSize: spec.Pipeline.MicroBatchSize,
		FailRound:      spec.Pipeline.FailRound,
		FailDevice:     spec.Pipeline.FailDevice,
		Journal:        jn.rec,
	}
	if len(spec.Faults) > 0 {
		cfg.Fault = spec.Faults[0].plan(spec.Seed, 0)
	}
	r, err := cfg.Run()
	if err != nil {
		return err
	}
	rep.setMetric("rounds_committed", float64(r.Stats.Rounds))
	rep.setMetric("rounds_aborted", float64(r.Stats.Aborts))
	rep.setMetric("heals", float64(r.Stats.Heals))
	rep.setMetric("migrations", float64(r.Stats.Migrations))
	rep.setMetric("migrated_bytes", float64(r.Stats.MigratedBytes))
	rep.setMetric("planned_move_bytes", r.Stats.PlannedMoveBytes)
	rep.setMetric("detect_latency_s", r.Stats.LastDetectLatency.Seconds())
	rep.setMetric("migration_time_s", r.Stats.LastMigrationTime.Seconds())
	rep.setMetric("first_loss", r.FirstLoss)
	rep.setMetric("final_loss", r.FinalLoss)
	rep.setMetric("bit_identical", 1)
	if !r.BitIdentical {
		rep.setMetric("bit_identical", 0)
		rep.warnf("recovered model diverged from the fault-free oracle")
	}
	return nil
}

// ---------------------------------------------------------------- deltas

// snapshotMap indexes a registry snapshot by full metric name.
func snapshotMap(r *metrics.Registry) map[string]metrics.Sample {
	out := make(map[string]metrics.Sample)
	for _, s := range r.Snapshot() {
		out[s.Name] = s
	}
	return out
}

// counterDelta returns after−before for a counter/gauge value (0 when the
// metric is absent from either snapshot).
func counterDelta(before, after map[string]metrics.Sample, name string) float64 {
	a, ok := after[name]
	if !ok {
		return 0
	}
	b := before[name] // zero Sample when absent: metric born during the run
	return a.Value - b.Value
}

// histDeltaQuantiles computes p50/p95 over exactly the observations recorded
// between two snapshots of a histogram, by subtracting cumulative bucket
// counts. ok is false when the histogram is absent or saw no observations.
func histDeltaQuantiles(before, after map[string]metrics.Sample, name string) (p50, p95 float64, ok bool) {
	a, found := after[name]
	if !found || len(a.Buckets) == 0 {
		return 0, 0, false
	}
	b := before[name]
	delta := make([]metrics.BucketSample, len(a.Buckets))
	for i, bk := range a.Buckets {
		delta[i] = bk
		if i < len(b.Buckets) && b.Buckets[i].UpperBound == bk.UpperBound {
			delta[i].Cumulative -= b.Buckets[i].Cumulative
		}
	}
	if delta[len(delta)-1].Cumulative <= 0 {
		return 0, 0, false
	}
	return metrics.QuantileFromBuckets(delta, 0.5), metrics.QuantileFromBuckets(delta, 0.95), true
}
