package main

import (
	"fmt"
	"math"
	"reflect"

	"ecofl/internal/experiments"
	"ecofl/internal/fl"
)

const (
	// simQualityRuns is how many seeded simulations the accuracy and
	// time-to-accuracy medians are taken over: fixed, so they repeat exactly.
	simQualityRuns = 5
	simTargetAcc   = 0.80
	simMinHorizon  = 120 // virtual seconds: one evaluation interval
)

// simConfig is the paper's §6.1 set-up for Eco-FL on the fashion-mnist preset
// (experiments.Fig7's "Eco-FL" row) over the given virtual horizon.
func simConfig(seed int64, scale experiments.Scale) fl.Config {
	return fl.Config{Seed: seed, MaxConcurrent: scale.MaxConcurrent, LocalEpochs: scale.LocalEpochs,
		BatchSize: 10, LR: 0.05, Mu: 0.05, Alpha: 0.5, Lambda: 500, NumGroups: 5, GroupSyncEvery: 2,
		RTThreshold: 15, Duration: scale.Duration, EvalInterval: scale.EvalInterval,
		Dynamic: true, DynamicProb: 0.2, DynamicInterval: scale.Duration / 25,
		MeanDelay: 40, StdDelay: 12}
}

func simPopulation(seed int64, scale experiments.Scale) *fl.Population {
	return experiments.BuildPopulation(seed, "fashion-mnist", scale, simConfig(seed, scale))
}

func runEcoFL(pop *fl.Population) *fl.RunResult {
	return fl.RunHierarchical(pop, fl.HierOptions{Grouping: fl.GroupEcoFL, DynamicRegroup: true})
}

// sim is the paper's server half, which exists only in the simulator:
// grouped hierarchical aggregation at paper scale on a virtual clock. One op
// is one seeded simulation from scratch (population, grouping, run).
type sim struct {
	p       params
	scale   experiments.Scale
	results []*fl.RunResult
	traced  []*fl.RunResult // the results of the calls a tracer watched
	samples int             // training samples those calls consumed
}

func setupSim(p params, _ *tracer) (instance, error) {
	s := &sim{p: p, scale: experiments.Full}
	s.scale.Duration = math.Max(simMinHorizon, s.scale.Duration*p.scale)
	// Set-up builds a paper-scale fleet and runs it over a short horizon, so
	// the worker pool and the buffer pools are warm before the first timed op.
	warm := s.scale
	warm.Duration = simMinHorizon
	runEcoFL(simPopulation(p.subseed("sim/warm-up"), warm))
	return s, nil
}

func (s *sim) seedOf(run int) int64 { return s.p.subseed(fmt.Sprintf("sim/run/%d", run)) }

// op is one seeded simulation; the operations it completes are its client
// trainings (local updates), whose number depends on the seed's latencies.
func (s *sim) op(_, _ int, tr *tracer) (int, error) {
	i := len(s.results)
	sp := tr.begin("fl.run_hierarchical", -1, tr.opID())
	pop := simPopulation(s.seedOf(i), s.scale)
	r := runEcoFL(pop)
	tr.end(sp)
	if len(r.Curve) == 0 {
		return 0, fmt.Errorf("simulation %d recorded no accuracy curve", i)
	}
	for _, pt := range r.Curve {
		if math.IsNaN(pt.Accuracy) || pt.Accuracy < 0 || pt.Accuracy > 1 {
			return 0, fmt.Errorf("simulation %d: accuracy %v at t=%v", i, pt.Accuracy, pt.Time)
		}
	}
	s.results = append(s.results, r)
	trainings := 0
	for c, n := range r.Participation {
		trainings += n
		if tr != nil {
			s.samples += n * pop.Clients[c].Train.Len() * s.scale.LocalEpochs
		}
	}
	if tr != nil {
		s.traced = append(s.traced, r)
	}
	if trainings == 0 {
		return 0, fmt.Errorf("simulation %d trained no client", i)
	}
	return trainings, nil
}

// tta is the median virtual time to the target accuracy over results; a run
// that never reaches it counts as the horizon (a censored value).
func tta(results []*fl.RunResult, horizon float64) float64 {
	var ts []float64
	for _, r := range results {
		ts = append(ts, math.Min(r.TimeToAccuracy(simTargetAcc), horizon))
	}
	return median(ts)
}

func (s *sim) verify(p params) (float64, []string) {
	var problems []string
	q := p.ops(simQualityRuns)
	if len(s.results) < q {
		return 0, []string{fmt.Sprintf("only %d of %d simulations completed", len(s.results), q)}
	}
	quality := s.results[:q]
	var best []float64
	for i, r := range quality {
		best = append(best, r.BestAccuracy)
		if p.scale >= 1 && r.BestAccuracy < simTargetAcc {
			problems = append(problems, fmt.Sprintf("simulation %d: best accuracy %.4f is below %.2f", i, r.BestAccuracy, simTargetAcc))
		}
	}
	// Determinism: simulation 0 run again yields the same curve, point for point.
	again := runEcoFL(simPopulation(s.seedOf(0), s.scale))
	if !reflect.DeepEqual(again.Curve, s.results[0].Curve) {
		problems = append(problems, "simulation 0 re-run with the same seed produced a different accuracy curve")
	}
	return median(best), problems
}

func (s *sim) layers(p params, seg *segment, m map[string]float64) error {
	var rounds, points float64
	for _, r := range s.traced {
		rounds += float64(r.Rounds)
		points += float64(len(r.Curve))
	}
	m["fl.sim_rounds_per_s"] = rounds / seg.wall
	m["fl.sim_trainings_per_s"] = float64(seg.ops) / seg.wall
	m["fl.samples_per_s"] = float64(s.samples) / seg.wall
	m["fl.virtual_tta_s"] = tta(s.results, s.scale.Duration)

	// Evaluation runs inside the strategy loop where no span can reach it:
	// its share is the curve's point count times an isolated evaluation.
	pop := simPopulation(s.seedOf(0), s.scale)
	w := pop.GlobalInit()
	eval := perCall(p.budget(0.01), func() { pop.Evaluate(w) })
	m["fl.evaluate_p50_s"] = eval
	m["fl.evaluate_share"] = points * eval / seg.wall

	// Plain FedAvg on the same fleets is the baseline the paper's headline
	// (time to accuracy) is read against.
	base := fl.RunFedAvg(simPopulation(s.seedOf(0), s.scale))
	m["fl.fedavg_virtual_tta_s"] = tta([]*fl.RunResult{base}, s.scale.Duration)
	return nil
}

func (s *sim) close() {}
