package fl

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"ecofl/internal/fl/robust"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
	"ecofl/internal/sim"
)

// Point is one sample of an accuracy-versus-time curve: virtual seconds in
// the simulation, the 1-based round in a loopback federation, seconds of
// training on the pipeline figures' axis.
type Point struct {
	Time     float64 `json:"t"`
	Accuracy float64 `json:"accuracy"`
}

// RunResult is the outcome of one FL simulation.
type RunResult struct {
	Strategy string
	Curve    []Point
	// FinalAccuracy is the last evaluation; BestAccuracy the maximum.
	FinalAccuracy, BestAccuracy float64
	// Rounds counts aggregation events (global rounds for FedAvg, client
	// updates for FedAsync, group rounds for hierarchical strategies).
	Rounds int
	// Participation counts how many times each client trained.
	Participation []int
	// AvgJS and AvgLatency describe the final grouping (hierarchical
	// strategies only) — the Fig. 9 axes.
	AvgJS, AvgLatency float64
	// Dropped is the number of clients dropped out at the end.
	Dropped int
	// Dropouts counts selected clients that dropped out mid-round
	// (Config.DropoutProb); QuorumDiscarded counts surviving stragglers whose
	// finished work was cut by the quorum rule; QuorumFailures counts rounds
	// aborted because fewer than ⌈Quorum·selected⌉ clients survived.
	Dropouts        int
	QuorumDiscarded int
	QuorumFailures  int
	// ChurnDepartures counts selected clients whose availability trace took
	// them offline mid-round (Config.Churn); Readmissions counts offline →
	// online transitions observed at selection time.
	ChurnDepartures int
	Readmissions    int
	// Corrupted counts client updates the configured adversary corrupted
	// before aggregation saw them (Config.Adversary); Clipped counts async
	// mix-ins whose delta was bounded by the staleness-aware norm clip
	// (FedAsync path, armed by Config.Robust).
	Corrupted int
	Clipped   int

	// rm are the run's instruments on the metrics Default registry.
	rm *runMetrics
}

// newRunResult starts a run's result with one participation counter per
// client and a curve sized for the run: one point per EvalInterval plus the
// first and the last. A caller that keeps results (a sweep, the benchmark)
// keeps their curves' backing arrays too, so the array is allocated once at
// its final size rather than grown by doubling past it.
func newRunResult(pop *Population, strategy string, rm *runMetrics) *RunResult {
	points := 2
	if n := pop.Config.Duration / pop.Config.EvalInterval; n > 0 && n < 1<<20 {
		points += int(n)
	}
	return &RunResult{Strategy: strategy, Curve: make([]Point, 0, points),
		Participation: make([]int, len(pop.Clients)), rm: rm}
}

func (r *RunResult) record(t, acc float64) {
	r.Curve = append(r.Curve, Point{Time: t, Accuracy: acc})
	r.FinalAccuracy = acc
	if acc > r.BestAccuracy {
		r.BestAccuracy = acc
	}
	r.rm.accuracy.Set(acc)
}

// TimeToAccuracy returns the earliest virtual time the curve reaches the
// target accuracy, or +Inf if it never does.
func (r *RunResult) TimeToAccuracy(target float64) float64 {
	for _, p := range r.Curve {
		if p.Accuracy >= target {
			return p.Time
		}
	}
	return math.Inf(1)
}

// dynamics advances the population's collaborative degrees over (from, to].
type dynamics struct {
	next float64
	cfg  Config
}

func (d *dynamics) advance(rng *rand.Rand, pop *Population, now float64) bool {
	if !d.cfg.Dynamic {
		return false
	}
	changed := false
	for now >= d.next {
		for _, c := range pop.Clients {
			if c.MaybeRedraw(rng, d.cfg.DynamicProb) {
				changed = true
			}
		}
		d.next += d.cfg.DynamicInterval
	}
	return changed
}

// sample draws k distinct clients that are neither dropped nor offline. The
// selection is built in active's storage, grown if it is short: a lane passes
// its previous selection, which its last round has finished reading.
func sample(rng *rand.Rand, clients []*Client, k int, active []*Client) []*Client {
	active = active[:0]
	for _, c := range clients {
		if !c.Dropped && !c.Offline {
			active = append(active, c)
		}
	}
	if k >= len(active) {
		return active
	}
	rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
	return active[:k]
}

// ---------------------------------------------------------------- strategies

// GroupingKind selects how clients are grouped.
type GroupingKind int

const (
	// GroupEcoFL is the Eq. 4 joint latency+data grouping.
	GroupEcoFL GroupingKind = iota
	// GroupLatencyOnly reproduces FedAT's response-latency tiers.
	GroupLatencyOnly
	// GroupDataOnly reproduces Astraea's data-balancing clusters.
	GroupDataOnly
)

func (k GroupingKind) String() string {
	switch k {
	case GroupEcoFL:
		return "eco-fl"
	case GroupLatencyOnly:
		return "latency-only"
	case GroupDataOnly:
		return "data-only"
	}
	return fmt.Sprintf("GroupingKind(%d)", int(k))
}

// HierOptions configures a hierarchical (grouped) FL run.
type HierOptions struct {
	Name     string
	Grouping GroupingKind
	// DynamicRegroup enables Algorithm 1's runtime monitoring (Eco-FL);
	// disabling it yields the paper's "w/o DG" ablation.
	DynamicRegroup bool
	// FedATWeighting up-weights slower groups in the global mix, FedAT's
	// bias correction.
	FedATWeighting bool
}

// policy is one row of the strategy table: everything that tells one strategy
// from another, as data. The lifecycle reads the fields, never the name.
type policy struct {
	// HierOptions names the strategy (RunResult.Strategy and the metric
	// label) and, where clients are grouped, says how.
	HierOptions
	// grouped gives every group a lane of its own (§5.1): synchronous FedProx
	// rounds of MaxConcurrent/groups clients from the group's model, which is
	// async-mixed into the global model every GroupSyncEvery rounds. Without
	// it lanes draw from the whole fleet and train from the global model.
	grouped bool
	// async runs MaxConcurrent worker-slot lanes of one client each (FedAsync):
	// a lane trains from a snapshot of the global model and mixes its lone
	// update back in with a staleness-attenuated α. Without it a lane's round
	// is a committee whose aggregate replaces the lane's model.
	async bool
	// tiered makes the one fleet-wide lane draw each round's clients from a
	// single latency tier, picked by TiFL's credit rule (see tierPick).
	tiered bool
}

// strategies is the strategy table, keyed by the stable lowercase names that
// declarative configuration (the scenario harness, the CLI) uses. The Names
// are what the figures print, so RunResult.Strategy and the per-strategy
// metric labels (ecofl_fl_round_virtual_seconds{strategy=…}) are the same
// whichever entry point launched the run.
var strategies = map[string]policy{
	"fedavg":      {HierOptions: HierOptions{Name: "FedAvg"}},
	"fedasync":    {HierOptions: HierOptions{Name: "FedAsync"}, async: true},
	"tifl":        {HierOptions: HierOptions{Name: "TiFL", Grouping: GroupLatencyOnly}, tiered: true},
	"fedat":       {HierOptions: HierOptions{Name: "FedAT", Grouping: GroupLatencyOnly, FedATWeighting: true}, grouped: true},
	"astraea":     {HierOptions: HierOptions{Name: "Astraea", Grouping: GroupDataOnly}, grouped: true},
	"eco-fl":      {HierOptions: HierOptions{Name: "Eco-FL", Grouping: GroupEcoFL, DynamicRegroup: true}, grouped: true},
	"eco-fl-nodg": {HierOptions: HierOptions{Name: "Eco-FL w/o DG", Grouping: GroupEcoFL}, grouped: true},
}

// StrategyNames lists the names RunByName accepts, sorted.
func StrategyNames() []string {
	names := make([]string, 0, len(strategies))
	for name := range strategies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Reads names the aggregation knobs of Config that a strategy's run reads.
type Reads struct {
	Mu, Alpha, Lambda, RTThreshold, NumGroups, GroupSyncEvery, DropoutProb, Quorum bool
}

// StrategyReads says which aggregation knobs a run of the named strategy
// reads, from the policy run acts on: only group lanes train FedProx rounds
// (Mu) and mix their model into the global one every GroupSyncEvery rounds;
// those and FedAsync's lone updates mix with Alpha; only Eq. 4 grouping
// weighs Lambda and RTThreshold; groups and tiers alike are NumGroups; and a
// lone update leaves no committee for DropoutProb or Quorum to cut.
func StrategyReads(strategy string) Reads {
	pol := strategies[strategy]
	grouping := pol.grouped || pol.tiered
	return Reads{
		Mu: pol.grouped, Alpha: pol.grouped || pol.async,
		Lambda: grouping && pol.Grouping == GroupEcoFL, RTThreshold: grouping && pol.Grouping == GroupEcoFL,
		NumGroups: grouping, GroupSyncEvery: pol.grouped,
		DropoutProb: !pol.async, Quorum: !pol.async,
	}
}

// RunByName runs the named row of the strategy table, so that the choice of
// strategy can live in data instead of code. Valid names are StrategyNames().
func RunByName(pop *Population, strategy string) (*RunResult, error) {
	pol, ok := strategies[strategy]
	if !ok {
		return nil, fmt.Errorf("fl: unknown strategy %q (valid: %v)", strategy, StrategyNames())
	}
	return run(pop, pol), nil
}

// RunFedAvg simulates the synchronous FedAvg baseline: every round selects
// up to MaxConcurrent random clients, waits for the slowest, and averages
// their updates weighted by sample count.
func RunFedAvg(pop *Population) *RunResult { return run(pop, strategies["fedavg"]) }

// RunHierarchical simulates a grouping-based hierarchical FL system:
// synchronous FedProx rounds inside each group, asynchronous mixing of group
// models into the global model (§5.1), and optionally Algorithm 1's dynamic
// regrouping.
func RunHierarchical(pop *Population, opts HierOptions) *RunResult {
	if opts.Name == "" {
		opts.Name = "hier-" + opts.Grouping.String()
	}
	return run(pop, policy{HierOptions: opts, grouped: true})
}

// tierPick is TiFL's tier selection (Chai et al., HPDC 2020): every round
// trains clients of ONE latency tier, so the round time is bounded by that
// tier's latency rather than by the global straggler. Faster tiers are
// likelier to be drawn, and a credit budget per tier bounds how often, so
// that selection re-spreads to the slow tiers as the fast ones run out.
type tierPick struct {
	credits []int
	probs   []float64
}

const tierCredits = 40

// pick draws the tier of the next round and spends one of its credits. It
// returns nil only when no tier has a member.
func (tp *tierPick) pick(rng *rand.Rand, tiers []*Group) *Group {
	for refilled := false; ; refilled = true {
		var total float64
		for i, tier := range tiers {
			tp.probs[i] = 0
			if tp.credits[i] > 0 && len(tier.Members) > 0 {
				tp.probs[i] = 1 / (1 + tier.Center) // a smaller center is a faster tier
				total += tp.probs[i]
			}
		}
		if total > 0 {
			r := rng.Float64() * total
			sel := 0
			for i, p := range tp.probs {
				if r < p {
					sel = i
					break
				}
				r -= p
			}
			tp.credits[sel]--
			return tiers[sel]
		}
		if refilled {
			return nil
		}
		// All credits exhausted: replenish (TiFL's epoch boundary).
		for i := range tp.credits {
			tp.credits[i] = tierCredits
		}
	}
}

// lane is one sequence of rounds on the run's virtual clock. Lanes run
// concurrently; a lane's next round starts when its last one has resolved.
type lane struct {
	id    int
	group *Group // the group whose members the lane selects from; nil for the fleet
	// base is the model the lane's rounds train from: the global model itself
	// for a fleet-wide committee lane, the group's model for a group lane, the
	// snapshot taken at dispatch for an async lane.
	base      []float64
	sinceSync int // committed rounds since the group model was last mixed into the global one
	// sel is the lane's last selection. Its round reads it when it resolves,
	// after other lanes have selected, so each lane keeps its own; the lane's
	// next selection reuses its storage.
	sel []*Client
}

// run is the one round lifecycle every strategy goes through. Each lane
// repeats: horizon → membership → churn sync → selection → cut → round time →
// (when the round resolves) training → commit → dynamics and Algorithm 1 →
// evaluation → redispatch. What differs between strategies is pol.
func run(pop *Population, pol policy) *RunResult {
	cfg := pop.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := newRunResult(pop, pol.Name, newRunMetrics(pol.Name))
	jn := cfg.Journal

	grouper := &Grouper{Lambda: cfg.Lambda, RT: cfg.RTThreshold, NumClasses: pop.TestClasses()}
	var groups []*Group
	if pol.grouped || pol.tiered {
		switch pol.Grouping {
		case GroupLatencyOnly:
			groups = grouper.LatencyOnlyGrouping(rng, pop.Clients, cfg.NumGroups)
		case GroupDataOnly:
			groups = grouper.DataOnlyGrouping(rng, pop.Clients, cfg.NumGroups)
		default:
			groups = grouper.InitialGrouping(rng, pop.Clients, cfg.NumGroups)
		}
	}
	groupSize := make([]*metrics.Gauge, len(groups))
	var meanCenter float64 // of the initial grouping: FedAT's weighting reference
	for i, g := range groups {
		groupSize[i] = metrics.GetGauge("ecofl_fl_group_size",
			"current member count per group", "strategy", pol.Name, "group", strconv.Itoa(g.ID))
		groupSize[i].Set(float64(len(g.Members)))
		meanCenter += g.Center
	}
	meanCenter /= float64(len(groups))

	// The lanes, how many clients a lane's round selects, and the proximal
	// coefficient of its local updates (only intra-group training is FedProx).
	w := pop.GlobalInit()
	var lanes []*lane
	perRound, mu := cfg.MaxConcurrent, 0.0
	switch {
	case pol.grouped:
		perRound, mu = max(1, cfg.MaxConcurrent/len(groups)), cfg.Mu
		for _, g := range groups {
			lanes = append(lanes, &lane{id: g.ID, group: g, base: append([]float64(nil), w...)})
		}
	case pol.async:
		perRound = 1
		for i := 0; i < cfg.MaxConcurrent; i++ {
			lanes = append(lanes, &lane{id: i})
		}
	default:
		lanes = []*lane{{base: w}}
	}
	// flat: one lane is the whole run, as in the for-loop FedAvg and TiFL were
	// written as. Two accidents of that loop are carried below, not fixed.
	flat := !pol.grouped && !pol.async

	var tiers *tierPick
	if pol.tiered {
		tiers = &tierPick{credits: make([]int, len(groups)), probs: make([]float64, len(groups))}
	}
	// A lone update has no committee to cut: only its client's trace can take
	// it. With a robust config attached it passes a staleness-aware norm clip
	// instead: the trailing median+MAD of accepted delta norms bounds each
	// new delta, tighter for staler updates (see robust.NormTracker). The
	// tracker's 2×median floor keeps honest traffic unclipped, so a clean
	// run's curve stays byte-identical — pinned by test.
	cutCfg := cfg
	var clip *robust.NormTracker
	var staleness *metrics.Histogram
	if pol.async {
		cutCfg.DropoutProb, cutCfg.Quorum = 0, 0
		if cfg.Robust != nil {
			clip = robust.NewNormTracker(0, 0, 0)
		}
		staleness = metrics.GetHistogram("ecofl_fl_staleness",
			"global-model versions elapsed between snapshot and mix-in (FedAsync)",
			[]float64{0, 1, 2, 4, 8, 16, 32})
	}

	// A round resolves whole before the next one fires, so the resolving
	// round's sample weights and updates are one set of slices for the run.
	var weights []float64
	var updates [][]float64

	dyn := dynamics{next: cfg.DynamicInterval, cfg: cfg}
	ch := newChurnState(cfg, res)
	lastEval := math.Inf(-1)
	var eng sim.Engine
	var dispatch func(ln *lane)
	dispatch = func(ln *lane) {
		// Horizon. Carried, not fixed: a flat lane stops once the clock has
		// reached the horizon, a group or slot lane still starts a round that
		// begins exactly on it (the published dropout/churn/Byzantine tables
		// and TestStrategyGolden pin both).
		start := eng.Now()
		if start > cfg.Duration || flat && start >= cfg.Duration {
			return
		}
		// Membership: the lane's group, the tier drawn for this round, or the
		// whole fleet — as the availability traces have it at this instant.
		g := ln.group
		if pol.tiered {
			g = tiers.pick(rng, groups)
		}
		members := pop.Clients
		if g != nil {
			members = g.Members
		}
		ch.sync(start, members, res.Rounds)
		sel := sample(rng, members, perRound, ln.sel)
		ln.sel = sel
		if len(sel) == 0 {
			// Nobody to select — the members are offline or dropped, or the
			// group is empty. Look again after a mean delay: traces bring
			// devices back and regrouping refills groups.
			eng.Schedule(cfg.MeanDelay, func() { dispatch(ln) })
			return
		}
		dispatched := res.Rounds
		cut := cutRound(rng, cutCfg, ch, start, sel)
		if pol.async {
			// A lone update that would land past the horizon is not dispatched.
			if start+cut.roundTime > cfg.Duration {
				return
			}
			ln.base = append(ln.base[:0], w...)
		} else if jn != nil {
			jn.RecordAt(start, "fl.round-start", dispatched, journal.None, groupAttrs(g, "selected", strconv.Itoa(len(sel)))...)
		}
		res.tally(cut)

		eng.Schedule(cut.roundTime, func() {
			now, round := eng.Now(), dispatched
			var stale float64
			if pol.async {
				// A lone update is numbered when it lands, and is as stale as
				// the number of updates that have landed since its snapshot.
				stale, round = float64(res.Rounds-dispatched), res.Rounds
				if cut.failed {
					// The client's trace went dark before its update landed:
					// the work is lost and the slot redispatches. A lost
					// update is not an aggregation event and fails no quorum.
					jn.RecordAt(now, "fl.depart", round, sel[0].ID)
					dispatch(ln)
					return
				}
			}
			journalCut(jn, now, round, cut)
			if cut.failed {
				// The committee waited out the round window without reaching
				// its quorum: no aggregation, a fresh selection next round.
				jn.SpanAt(start, now, ln.id, "fl.quorum-fail", round, journal.None)
				res.QuorumFailures++
				res.rm.failed.Inc()
			} else {
				weights = weights[:0]
				for _, c := range cut.committee {
					weights = append(weights, float64(c.Train.Len()))
					res.Participation[c.ID]++
				}
				updates = pop.TrainClients(rng, cut.committee, ln.base, mu, updates)
				res.rm.selected.Add(int64(len(updates)))
				if pol.async {
					if clip != nil {
						norm := robust.DeltaNorm(updates[0], ln.base)
						if max, ok := clip.StaleThreshold(stale); ok && norm > max {
							robust.ClipDelta(updates[0], ln.base, max)
							norm = max
							res.Clipped++
							res.rm.clips.Inc()
							jn.RecordAt(now, "fl.norm-clip", round, sel[0].ID)
						}
						clip.Observe(norm)
					}
					AsyncMix(w, updates[0], StalenessAlpha(cfg.Alpha, stale, 1.0))
					staleness.Observe(stale)
					if jn != nil {
						jn.SpanAt(start, now, ln.id, "fl.round-commit", round+1, sel[0].ID,
							"staleness", strconv.FormatFloat(stale, 'g', -1, 64))
					}
				} else {
					// The mix replaces the lane's base: on a flat lane, the
					// global model itself.
					cfg.aggregateInto(ln.base, ln.base, updates, weights)
					if jn != nil {
						jn.SpanAt(start, now, ln.id, "fl.round-commit", round, journal.None, groupAttrs(g, "clients", strconv.Itoa(len(updates)))...)
					}
					if ln.sinceSync++; pol.grouped && ln.sinceSync >= cfg.GroupSyncEvery {
						// Push the group model to the async aggregator and pull
						// the fresh global as the next sync-round's base (§5.1).
						ln.sinceSync = 0
						alpha := cfg.Alpha
						if pol.FedATWeighting && meanCenter > 0 {
							alpha = math.Min(0.9, cfg.Alpha*g.Center/meanCenter)
						}
						AsyncMix(w, ln.base, alpha)
						copy(ln.base, w)
						if jn != nil {
							jn.RecordAt(now, "fl.group-sync", round, journal.None, groupAttrs(g, "alpha", strconv.FormatFloat(alpha, 'g', 4, 64))...)
						}
					}
				}
			}
			res.Rounds++
			res.rm.rounds.Inc()
			res.rm.roundSec.Observe(cut.roundTime)
			// Carried, not fixed: after a failed round a flat lane still
			// advances the dynamics and evaluates, a group lane goes straight
			// to its next selection (pinned like the horizon rule above).
			if cut.failed && !flat {
				dispatch(ln)
				return
			}
			if dyn.advance(rng, pop, now) && pol.DynamicRegroup {
				// Algorithm 1: move or drop the members a re-draw pushed out
				// of their group's latency range, re-admit who fits again.
				for _, gg := range groups {
					grouper.CheckAndRegroup(gg, groups)
				}
				for _, c := range pop.Clients {
					grouper.TryReadmit(c, groups)
				}
				for i, gg := range groups {
					groupSize[i].Set(float64(len(gg.Members)))
				}
			}
			if now-lastEval >= cfg.EvalInterval {
				res.record(now, pop.Evaluate(w))
				lastEval = now
			}
			dispatch(ln)
		})
	}
	for _, ln := range lanes {
		dispatch(ln)
	}
	eng.Run(0)
	if groups != nil {
		res.AvgJS = AvgGroupJS(groups)
		res.AvgLatency = AvgGroupLatency(groups)
		for _, c := range pop.Clients {
			if c.Dropped {
				res.Dropped++
			}
		}
	}
	res.Corrupted = pop.Corruptions()
	res.rm = nil // a result someone keeps holds its numbers, not the run's instruments
	return res
}

// groupAttrs prefixes a round's journal attributes with its group's id, when
// the round is a group's (or a tier's).
func groupAttrs(g *Group, kv ...string) []string {
	if g != nil {
		return append([]string{"group", strconv.Itoa(g.ID)}, kv...)
	}
	return kv
}
