package fl

import (
	"math"
	"math/rand"
)

// RunTiFL simulates TiFL (Chai et al., HPDC 2020), the other tier-based
// system the paper compares against conceptually: clients are tiered by
// response latency; each global round picks ONE tier — with adaptive
// credits so slow tiers are not starved — trains clients from that tier,
// and synchronously averages into the global model. Unlike FedAT there is
// no asynchronous inter-tier mixing: rounds are fully synchronous, but the
// round time is bounded by the chosen tier's latency rather than the
// global straggler.
func RunTiFL(pop *Population) *RunResult {
	cfg := pop.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := newRunResult(pop, "TiFL", nil)
	grouper := &Grouper{Lambda: 0, RT: math.Inf(1), NumClasses: pop.TestClasses()}
	tiers := grouper.LatencyOnlyGrouping(rng, pop.Clients, cfg.NumGroups)

	// Credits bound how often each tier may be selected; TiFL re-spreads
	// selection across tiers as fast tiers exhaust credits.
	credits := make([]int, len(tiers))
	const initialCredits = 40
	for i := range credits {
		credits[i] = initialCredits
	}
	// Selection probabilities favour faster tiers but respect credits.
	probs := make([]float64, len(tiers))

	w := pop.GlobalInit()
	t, lastEval := 0.0, math.Inf(-1)
	for t < cfg.Duration {
		var total float64
		for i, tier := range tiers {
			probs[i] = 0
			if credits[i] > 0 && len(tier.Members) > 0 {
				// Faster tiers (smaller center) get higher probability.
				probs[i] = 1 / (1 + tier.Center)
				total += probs[i]
			}
		}
		if total == 0 {
			// All credits exhausted: replenish (TiFL's epoch boundary).
			for i := range credits {
				credits[i] = initialCredits
			}
			continue
		}
		r := rng.Float64() * total
		sel := 0
		for i, p := range probs {
			if r < p {
				sel = i
				break
			}
			r -= p
		}
		tier := tiers[sel]
		credits[sel]--
		clients := sample(rng, tier.Members, cfg.MaxConcurrent)
		if len(clients) == 0 {
			t += cfg.MeanDelay
			continue
		}
		var roundTime float64
		weights := make([]float64, len(clients))
		for i, c := range clients {
			if l := c.Latency(); l > roundTime {
				roundTime = l
			}
			weights[i] = float64(c.Train.Len())
			res.Participation[c.ID]++
		}
		updates := pop.TrainClients(rng, clients, w, 0)
		w = WeightedAverage(updates, weights)
		t += roundTime
		res.Rounds++
		if t-lastEval >= cfg.EvalInterval {
			res.record(t, pop.Evaluate(w))
			lastEval = t
		}
	}
	res.AvgJS = AvgGroupJS(tiers, pop.TestClasses())
	res.AvgLatency = AvgGroupLatency(tiers)
	return res
}
