package runtime

import (
	"math"
	"slices"
	"time"

	"ecofl/internal/adaptive"
	"ecofl/internal/pipeline"
)

// switchAfter is how many clean rounds in a row the smoothed P must differ
// from the P in force before the pipeline switches to it. It is the number
// of rounds after which the estimate keeps under 5 % of the weight it had
// when the disagreement began, ⌈ln 0.05 ÷ ln(1 − adaptive.Alpha)⌉ = 9: a
// disagreement that outlasts the estimate's own memory is the estimate
// having moved, not a few rounds' noise leaning on it. The switch takes the
// whole vector, never one stage: Eq. 3's P falls strictly along the stages,
// and stages switched one by one could leave a stage more forwards to run
// than its upstream sends before it waits for a gradient — the stage stalls
// on an activation that comes only after its own gradient has gone back.
const switchAfter = 9

// estimate is a pipeline's one estimate of its stages and links, and the
// residency sized from it (Eq. 3). Each term of times is the EMA
// (adaptive.Smooth) of the clean rounds' measurements (measure), zero until
// something measured it.
type estimate struct {
	times  []pipeline.StageTimes
	sample []pipeline.StageTimes // one round's measurement, scratch
	// p is the P vector in force, nil until the estimate first sized one
	// (the pipeline runs P_s = S−s until then); behind counts the clean
	// rounds in a row whose smoothed P differed from it.
	p      []int
	behind int
	// residency is pipeline.ResidencyP; tests substitute other shapes.
	residency func([]pipeline.StageTimes) ([]int, error)
}

func newEstimate(S int) estimate {
	return estimate{times: make([]pipeline.StageTimes, S), sample: make([]pipeline.StageTimes, S), residency: pipeline.ResidencyP}
}

// observe folds one clean round of m micro-batches, clocks[s][i] for stage
// s and micro-batch i, into the estimate and sizes P from it.
func (e *estimate) observe(clocks [][]microClock, m int) {
	measure(clocks, e.times, e.sample)
	e.fold(e.sample)
	e.size(m)
}

// fold folds a measurement of every term into the estimate; a term Smooth
// refuses (such as the NaN of a link direction nothing measured) stays.
func (e *estimate) fold(sample []pipeline.StageTimes) {
	for s, x := range sample {
		t := &e.times[s]
		t.Tf, _ = adaptive.Smooth(t.Tf, x.Tf)
		t.Tb, _ = adaptive.Smooth(t.Tb, x.Tb)
		t.CommF, _ = adaptive.Smooth(t.CommF, x.CommF)
		t.CommB, _ = adaptive.Smooth(t.CommB, x.CommB)
	}
}

// size sizes P from the estimate: at once when none is in force, and
// otherwise the whole vector, once the estimate's P has differed from the
// one in force at m micro-batches (K = min(P, m)) for switchAfter rounds in
// a row.
func (e *estimate) size(m int) {
	p, err := e.residency(e.times)
	switch {
	case err != nil:
	case e.p == nil:
		e.p = p
	case slices.EqualFunc(p, e.p, func(a, b int) bool { return min(a, m) == min(b, m) }):
		e.behind = 0
	default:
		if e.behind++; e.behind >= switchAfter {
			e.p, e.behind = p, 0
		}
	}
}

// measure writes one clean round's Eq. 3 terms per micro-batch to out, from
// clocks[s][i] for stage s and micro-batch i: each stage's median forward
// and backward time, and each link's median one-way time in each direction
// (oneWay, given the estimate est so far). The last stage has no link up,
// so its transfer terms are zero.
func measure(clocks [][]microClock, est, out []pipeline.StageTimes) {
	var buf [64]time.Duration
	for s, here := range clocks {
		samples := buf[:0]
		for _, c := range here {
			samples = append(samples, c.fwd)
		}
		out[s].Tf = median(samples)
		samples = samples[:0]
		for _, c := range here {
			samples = append(samples, c.bwd)
		}
		out[s].Tb = median(samples)
		out[s].CommF, out[s].CommB = 0, 0
		if s < len(clocks)-1 {
			out[s].CommF = oneWay(here, actFrame, est[s].CommF > 0, buf[:0])
			out[s].CommB = oneWay(here, gradFrame, est[s].CommB > 0, buf[:0])
		}
	}
}

// oneWay is the median one-way time of frame dir of each clock, appended
// to samples. A frame is timed received − queued when its receiver was
// already in recv as it was queued: one that waited for a busy receiver
// measures the receiver, not the link. When no frame was, the direction
// measures NaN, which the estimate refuses, keeping what it knew; if it
// knew nothing, each frame is timed at its sender, by how long the writer
// took to write it, rather than price the link as free.
func oneWay(clocks []microClock, dir int, known bool, samples []time.Duration) float64 {
	for _, c := range clocks {
		if f := c.link[dir]; f.wait <= f.sent {
			samples = append(samples, f.got-f.sent)
		}
	}
	if len(samples) == 0 && !known {
		for _, c := range clocks {
			samples = append(samples, c.link[dir].wrote)
		}
	}
	return median(samples)
}

// median returns the median of xs in seconds, sorting xs; NaN when xs is
// empty.
func median(xs []time.Duration) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return (xs[(n-1)/2] + xs[n/2]).Seconds() / 2
}
