package fl

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ecofl/internal/fl/robust"
	"ecofl/internal/metrics"
	"ecofl/internal/obs/journal"
	"ecofl/internal/sim"
)

// Point is one sample of the accuracy-versus-virtual-time curve.
type Point struct {
	Time     float64
	Accuracy float64
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
	if r.rm != nil {
		r.rm.accuracy.Set(acc)
	}
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

// sample draws k distinct clients that are neither dropped nor offline.
func sample(rng *rand.Rand, clients []*Client, k int) []*Client {
	var active []*Client
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

// ---------------------------------------------------------------- FedAvg

// RunFedAvg simulates the synchronous FedAvg baseline: every round selects
// up to MaxConcurrent random clients, waits for the slowest, and averages
// their updates weighted by sample count.
func RunFedAvg(pop *Population) *RunResult {
	cfg := pop.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := newRunResult(pop, "FedAvg", newRunMetrics("FedAvg"))
	tr := cfg.Trace
	if tr != nil {
		tr.SetProcessName(flPID, "fl/FedAvg")
		tr.SetThreadName(flPID, 0, "global rounds")
	}
	w := pop.GlobalInit()
	dyn := dynamics{next: cfg.DynamicInterval, cfg: cfg}
	ch := newChurnState(cfg, res)
	t, lastEval := 0.0, math.Inf(-1)
	for t < cfg.Duration {
		ch.sync(t, pop.Clients, res.Rounds)
		sel := sample(rng, pop.Clients, cfg.MaxConcurrent)
		if len(sel) == 0 {
			if ch == nil {
				break
			}
			// Whole fleet offline: wait out a mean delay, then re-check the
			// availability traces — the heal loop under churn.
			t += cfg.MeanDelay
			continue
		}
		cfg.Journal.RecordAt(t, "fl.round-start", res.Rounds, journal.None,
			"selected", strconv.Itoa(len(sel)))
		cut := cutRound(rng, cfg, ch, t, sel)
		res.tally(cut)
		roundTime := cut.roundTime
		journalCut(cfg.Journal, t+roundTime, res.Rounds, cut)
		if !cut.failed {
			weights := make([]float64, len(cut.committee))
			for i, c := range cut.committee {
				weights[i] = float64(c.Train.Len())
				res.Participation[c.ID]++
			}
			updates := pop.TrainClients(rng, cut.committee, w, 0) // plain FedAvg: no proximal term
			w = cfg.aggregate(w, updates, weights)
			res.rm.selected.Add(int64(len(cut.committee)))
		}
		if tr != nil {
			tr.Span(flPID, 0, "round", "fl", t, t+roundTime,
				map[string]float64{"clients": float64(len(cut.committee))})
		}
		if !cut.failed {
			cfg.Journal.RecordAt(t+roundTime, "fl.round-commit", res.Rounds, journal.None,
				"clients", strconv.Itoa(len(cut.committee)))
		}
		t += roundTime
		res.Rounds++
		res.rm.rounds.Inc()
		res.rm.roundSec.Observe(roundTime)
		dyn.advance(rng, pop, t)
		if t-lastEval >= cfg.EvalInterval {
			res.record(t, pop.Evaluate(w))
			lastEval = t
		}
	}
	res.Corrupted = pop.Corruptions()
	return res
}

// ---------------------------------------------------------------- FedAsync

// RunFedAsync simulates the asynchronous baseline on the discrete-event
// engine: MaxConcurrent clients train continuously; each arriving update is
// mixed into the global model with a staleness-attenuated α, and a fresh
// client is dispatched.
func RunFedAsync(pop *Population) *RunResult {
	cfg := pop.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := newRunResult(pop, "FedAsync", newRunMetrics("FedAsync"))
	staleness := metrics.GetHistogram("ecofl_fl_staleness",
		"global-model versions elapsed between snapshot and mix-in (FedAsync)",
		[]float64{0, 1, 2, 4, 8, 16, 32})
	tr := cfg.Trace
	if tr != nil {
		tr.SetProcessName(flPID, "fl/FedAsync")
		tr.SetThreadName(flPID, 0, "client updates")
	}
	w := pop.GlobalInit()
	dyn := dynamics{next: cfg.DynamicInterval, cfg: cfg}
	ch := newChurnState(cfg, res)
	// With a robust config attached, async mix-ins pass a staleness-aware
	// norm clip: the trailing median+MAD of accepted delta norms bounds each
	// new delta, tighter for staler updates (see robust.NormTracker). The
	// tracker's 2×median floor keeps honest traffic unclipped, so a clean
	// run's curve stays byte-identical — pinned by test.
	var clip *robust.NormTracker
	if cfg.Robust != nil {
		clip = robust.NewNormTracker(0, 0, 0)
	}

	var eng sim.Engine
	version := 0
	lastEval := math.Inf(-1)
	var dispatch func()
	dispatch = func() {
		ch.sync(eng.Now(), pop.Clients, res.Rounds)
		sel := sample(rng, pop.Clients, 1)
		if len(sel) == 0 {
			if ch != nil && eng.Now()+cfg.MeanDelay <= cfg.Duration {
				// Whole fleet offline: keep this worker slot alive and poll
				// the availability traces again after a mean delay.
				eng.Schedule(cfg.MeanDelay, dispatch)
			}
			return
		}
		c := sel[0]
		snapshot := append([]float64(nil), w...)
		baseVersion := version
		dispatched := eng.Now()
		finish := dispatched + c.Latency()
		if finish > cfg.Duration {
			return
		}
		eng.ScheduleAt(finish, func() {
			if ch.departs(c, dispatched, finish) {
				// The trace took the client offline before its update landed:
				// the work is lost, the worker slot redispatches. No rng is
				// consumed, matching cutRound's departure semantics.
				res.ChurnDepartures++
				res.rm.departs.Inc()
				cfg.Journal.RecordAt(finish, "fl.depart", res.Rounds, c.ID)
				dispatch()
				return
			}
			update := pop.LocalTrain(rng, c, snapshot, 0)
			res.Participation[c.ID]++
			stale := float64(version - baseVersion)
			if clip != nil {
				norm := robust.DeltaNorm(update, snapshot)
				if max, ok := clip.StaleThreshold(stale); ok && norm > max {
					robust.ClipDelta(update, snapshot, max)
					norm = max
					res.Clipped++
					res.rm.clips.Inc()
					cfg.Journal.RecordAt(finish, "fl.norm-clip", version, c.ID)
				}
				clip.Observe(norm)
			}
			alpha := StalenessAlpha(cfg.Alpha, stale, 1.0)
			AsyncMix(w, update, alpha)
			version++
			res.Rounds++
			res.rm.rounds.Inc()
			res.rm.selected.Inc()
			res.rm.roundSec.Observe(finish - dispatched)
			staleness.Observe(stale)
			if tr != nil {
				tr.Span(flPID, 0, "update", "fl", dispatched, finish,
					map[string]float64{"client": float64(c.ID), "staleness": stale})
			}
			cfg.Journal.RecordAt(finish, "fl.round-commit", version, c.ID,
				"staleness", strconv.FormatFloat(stale, 'g', -1, 64))
			dyn.advance(rng, pop, eng.Now())
			if eng.Now()-lastEval >= cfg.EvalInterval {
				res.record(eng.Now(), pop.Evaluate(w))
				lastEval = eng.Now()
			}
			dispatch()
		})
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		dispatch()
	}
	eng.Run(0)
	res.Corrupted = pop.Corruptions()
	return res
}

// ---------------------------------------------------------------- Hierarchical

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

// RunHierarchical simulates a grouping-based hierarchical FL system:
// synchronous FedProx rounds inside each group, asynchronous mixing of group
// models into the global model (§5.1), and optionally Algorithm 1's dynamic
// regrouping.
func RunHierarchical(pop *Population, opts HierOptions) *RunResult {
	cfg := pop.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	name := opts.Name
	if name == "" {
		name = "hier-" + opts.Grouping.String()
	}
	res := newRunResult(pop, name, newRunMetrics(name))
	grouper := &Grouper{Lambda: cfg.Lambda, RT: cfg.RTThreshold, NumClasses: pop.TestClasses()}

	var groups []*Group
	switch opts.Grouping {
	case GroupLatencyOnly:
		groups = grouper.LatencyOnlyGrouping(rng, pop.Clients, cfg.NumGroups)
	case GroupDataOnly:
		groups = grouper.DataOnlyGrouping(rng, pop.Clients, cfg.NumGroups)
	default:
		groups = grouper.InitialGrouping(rng, pop.Clients, cfg.NumGroups)
	}

	tr := cfg.Trace
	if tr != nil {
		tr.SetProcessName(flPID, "fl/"+name)
	}
	groupSize := make(map[*Group]*metrics.Gauge, len(groups))
	for _, g := range groups {
		if tr != nil {
			tr.SetThreadName(flPID, g.ID, fmt.Sprintf("group %d", g.ID))
		}
		groupSize[g] = metrics.GetGauge("ecofl_fl_group_size",
			"current member count per group", "strategy", name, "group", strconv.Itoa(g.ID))
		groupSize[g].Set(float64(len(g.Members)))
	}

	w := pop.GlobalInit()
	groupModel := make(map[*Group][]float64, len(groups))
	roundsSinceSync := make(map[*Group]int, len(groups))
	for _, g := range groups {
		groupModel[g] = append([]float64(nil), w...)
	}
	perGroup := cfg.MaxConcurrent / len(groups)
	if perGroup < 1 {
		perGroup = 1
	}
	var meanCenter float64
	for _, g := range groups {
		meanCenter += g.Center
	}
	meanCenter /= float64(len(groups))

	dyn := dynamics{next: cfg.DynamicInterval, cfg: cfg}
	ch := newChurnState(cfg, res)
	lastEval := math.Inf(-1)
	var eng sim.Engine
	var scheduleRound func(g *Group)
	scheduleRound = func(g *Group) {
		start := eng.Now()
		if start > cfg.Duration {
			return
		}
		if len(g.Members) == 0 {
			// Empty group: re-check after a mean delay (members may be
			// regrouped into it later).
			eng.Schedule(cfg.MeanDelay, func() { scheduleRound(g) })
			return
		}
		ch.sync(start, g.Members, res.Rounds)
		sel := sample(rng, g.Members, perGroup)
		if len(sel) == 0 {
			eng.Schedule(cfg.MeanDelay, func() { scheduleRound(g) })
			return
		}
		round := res.Rounds
		cfg.Journal.RecordAt(start, "fl.round-start", round, journal.None,
			"group", strconv.Itoa(g.ID), "selected", strconv.Itoa(len(sel)))
		cut := cutRound(rng, cfg, ch, start, sel)
		res.tally(cut)
		roundTime := cut.roundTime
		eng.Schedule(roundTime, func() {
			now := eng.Now()
			journalCut(cfg.Journal, now, round, cut)
			if cut.failed {
				// The group waited out the round window without reaching its
				// quorum: no aggregation, try again with a fresh selection.
				res.Rounds++
				res.rm.rounds.Inc()
				res.rm.roundSec.Observe(roundTime)
				if tr != nil {
					tr.Span(flPID, g.ID, "group-round-failed", "fl", start, now,
						map[string]float64{"dropouts": float64(cut.dropouts)})
				}
				scheduleRound(g)
				return
			}
			weights := make([]float64, len(cut.committee))
			ref := groupModel[g]
			for i, c := range cut.committee {
				weights[i] = float64(c.Train.Len())
				res.Participation[c.ID]++
			}
			updates := pop.TrainClients(rng, cut.committee, ref, cfg.Mu)
			groupW := cfg.aggregate(ref, updates, weights)
			copy(groupModel[g], groupW)
			res.Rounds++
			res.rm.rounds.Inc()
			res.rm.selected.Add(int64(len(cut.committee)))
			res.rm.roundSec.Observe(roundTime)
			if tr != nil {
				tr.Span(flPID, g.ID, "group-round", "fl", start, now,
					map[string]float64{"clients": float64(len(cut.committee))})
			}
			cfg.Journal.RecordAt(now, "fl.round-commit", round, journal.None,
				"group", strconv.Itoa(g.ID), "clients", strconv.Itoa(len(cut.committee)))
			roundsSinceSync[g]++
			if roundsSinceSync[g] >= cfg.GroupSyncEvery {
				// Push the group model to the async aggregator and pull
				// the fresh global as the next sync-round's base (§5.1).
				roundsSinceSync[g] = 0
				alpha := cfg.Alpha
				if opts.FedATWeighting && meanCenter > 0 {
					alpha = math.Min(0.9, cfg.Alpha*g.Center/meanCenter)
				}
				AsyncMix(w, groupW, alpha)
				copy(groupModel[g], w)
				cfg.Journal.RecordAt(now, "fl.group-sync", round, journal.None,
					"group", strconv.Itoa(g.ID), "alpha", strconv.FormatFloat(alpha, 'g', 4, 64))
			}

			if dyn.advance(rng, pop, now) && opts.DynamicRegroup {
				for _, gg := range groups {
					grouper.CheckAndRegroup(gg, groups)
				}
				for _, c := range pop.Clients {
					grouper.TryReadmit(c, groups)
				}
				for _, gg := range groups {
					groupSize[gg].Set(float64(len(gg.Members)))
				}
			}
			if now-lastEval >= cfg.EvalInterval {
				res.record(now, pop.Evaluate(w))
				lastEval = now
			}
			scheduleRound(g)
		})
	}
	for _, g := range groups {
		scheduleRound(g)
	}
	eng.Run(0)
	res.AvgJS = AvgGroupJS(groups, pop.TestClasses())
	res.AvgLatency = AvgGroupLatency(groups)
	for _, c := range pop.Clients {
		if c.Dropped {
			res.Dropped++
		}
	}
	res.Corrupted = pop.Corruptions()
	return res
}
