// Package robust implements Byzantine-resilient aggregation for federated
// learning: pluggable mixers that bound the influence any single client
// update can exert on the aggregate (coordinate-wise median, trimmed mean,
// norm-clipped mean, and a Krum-style selector), plus the trailing
// median+MAD norm tracker the transport's ingest gate and the FedAsync
// staleness-aware clip derive their thresholds from.
//
// The package is pure math over weight vectors — no fl, flnet or metrics
// dependencies — so both the virtual-time simulator (internal/fl) and the
// real transport (internal/flnet) consume the same implementations.
package robust

import (
	"fmt"
	"math"
	"sort"
)

// Aggregator mixes one synchronous round's client updates into a single
// vector. ref is the reference model the updates were trained from (the
// group or global model): distance-based mixers measure each update's
// displacement against it. updates are the clients' trained weight vectors
// and weights their aggregation weights (sample counts), indexed alike.
// Implementations must not mutate ref or the updates.
type Aggregator interface {
	// Name is the stable lowercase identifier used by configuration
	// surfaces (scenario specs, experiment tables, CLI flags).
	Name() string
	Aggregate(ref []float64, updates [][]float64, weights []float64) []float64
}

// Mean is the sample-weighted arithmetic mean — the legacy FedAvg/FedProx
// aggregation, expressed through the Aggregator interface. Its arithmetic
// replicates fl.WeightedAverage term for term (same normalization, same
// accumulation order), so attaching Mean as the "defense" is bit-identical
// to the undefended path: the nop-discipline anchor the byte-identical
// curve tests pin.
type Mean struct{}

// Name implements Aggregator.
func (Mean) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (Mean) Aggregate(_ []float64, updates [][]float64, weights []float64) []float64 {
	if len(updates) == 0 {
		return nil
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]float64, len(updates[0]))
	for i, v := range updates {
		f := weights[i] / total
		for j, x := range v {
			out[j] += f * x
		}
	}
	return out
}

// Median is the coordinate-wise median: each output coordinate is the
// median of that coordinate across the updates. Sample weights are ignored
// — a Byzantine client would inflate its own weight, so the median treats
// every update as one vote. Tolerates up to ⌈n/2⌉−1 arbitrary updates per
// coordinate.
type Median struct{}

// Name implements Aggregator.
func (Median) Name() string { return "median" }

// Aggregate implements Aggregator.
func (Median) Aggregate(_ []float64, updates [][]float64, _ []float64) []float64 {
	return trimmedAggregate(updates, 0.5)
}

// TrimmedMean drops the Trim fraction of values from each end of every
// coordinate's sorted column and averages the rest — the classic
// coordinate-wise trimmed mean, robust to ⌊Trim·n⌋ Byzantine updates per
// coordinate while keeping more honest signal than the median.
type TrimmedMean struct {
	// Trim is the fraction trimmed from each end, in [0, 0.5). 0 means the
	// default 0.2.
	Trim float64
}

// Name implements Aggregator.
func (TrimmedMean) Name() string { return "trimmed" }

// Aggregate implements Aggregator.
func (t TrimmedMean) Aggregate(_ []float64, updates [][]float64, _ []float64) []float64 {
	trim := t.Trim
	if trim == 0 {
		trim = 0.2
	}
	return trimmedAggregate(updates, trim)
}

// trimmedAggregate is the shared column machinery of Median (trim 0.5,
// which degenerates to the exact median) and TrimmedMean.
func trimmedAggregate(updates [][]float64, trim float64) []float64 {
	n := len(updates)
	if n == 0 {
		return nil
	}
	d := len(updates[0])
	out := make([]float64, d)
	col := make([]float64, n)
	cut := int(trim * float64(n))
	if 2*cut >= n {
		// Everything trimmed away: degrade to the median.
		cut = -1
	}
	for j := 0; j < d; j++ {
		for i, u := range updates {
			col[i] = u[j]
		}
		sort.Float64s(col)
		if cut < 0 {
			out[j] = medianSorted(col)
			continue
		}
		var sum float64
		for _, v := range col[cut : n-cut] {
			sum += v
		}
		out[j] = sum / float64(n-2*cut)
	}
	return out
}

// medianSorted returns the median of an already sorted non-empty slice.
func medianSorted(s []float64) float64 {
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// NormClip is the norm-clipped sample-weighted mean: each update's
// displacement from ref is clipped to a norm bound before averaging, so a
// scaled-up poison update contributes no more than an honest one. The mean
// itself uses the same normalization as Mean.
type NormClip struct {
	// Max is the L2 displacement bound. 0 derives the bound per round as
	// the median of the updates' displacement norms — adaptive, and robust
	// to a minority of inflated updates.
	Max float64
}

// Name implements Aggregator.
func (NormClip) Name() string { return "norm-clip" }

// Aggregate implements Aggregator.
func (nc NormClip) Aggregate(ref []float64, updates [][]float64, weights []float64) []float64 {
	n := len(updates)
	if n == 0 {
		return nil
	}
	norms := make([]float64, n)
	for i, u := range updates {
		norms[i] = DeltaNorm(u, ref)
	}
	bound := nc.Max
	if bound <= 0 {
		sorted := append([]float64(nil), norms...)
		sort.Float64s(sorted)
		bound = medianSorted(sorted)
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]float64, len(updates[0]))
	for i, u := range updates {
		scale := 1.0
		if norms[i] > bound && norms[i] > 0 {
			scale = bound / norms[i]
		}
		f := weights[i] / total
		for j, x := range u {
			out[j] += f * (ref[j] + scale*(x-ref[j]))
		}
	}
	return out
}

// Krum is a Krum-style selector: it returns the single update whose summed
// squared distance to its n−F−2 nearest peers is smallest — the update most
// surrounded by agreeing neighbours. With F Byzantine clients among n,
// Krum's winner is guaranteed honest when n ≥ 2F+3. Selection discards the
// averaging benefit of the honest majority, so it suits high-f regimes
// where means (even trimmed) break down.
type Krum struct {
	// F is the assumed number of Byzantine updates per round. 0 means
	// ⌊(n−3)/2⌋, the most Krum can tolerate.
	F int
}

// Name implements Aggregator.
func (Krum) Name() string { return "krum" }

// Aggregate implements Aggregator.
func (k Krum) Aggregate(_ []float64, updates [][]float64, _ []float64) []float64 {
	n := len(updates)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return append([]float64(nil), updates[0]...)
	}
	f := k.F
	if f <= 0 {
		f = (n - 3) / 2
	}
	near := n - f - 2
	if near < 1 {
		near = 1
	}
	if near > n-1 {
		near = n - 1
	}
	best, bestScore := 0, math.Inf(1)
	dists := make([]float64, 0, n-1)
	for i := range updates {
		dists = dists[:0]
		for j := range updates {
			if i == j {
				continue
			}
			dists = append(dists, sqDist(updates[i], updates[j]))
		}
		sort.Float64s(dists)
		var score float64
		for _, d := range dists[:near] {
			score += d
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return append([]float64(nil), updates[best]...)
}

// sqDist is the squared L2 distance between two equal-length vectors.
func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// DeltaNorm is the L2 norm of update−ref: the displacement a client's
// training moved it from the reference model.
func DeltaNorm(update, ref []float64) float64 {
	var s float64
	for i, v := range update {
		d := v - ref[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ClipDelta rescales update in place so its displacement from ref has L2
// norm at most maxNorm, returning true when clipping was applied.
func ClipDelta(update, ref []float64, maxNorm float64) bool {
	norm := DeltaNorm(update, ref)
	if norm <= maxNorm || norm == 0 {
		return false
	}
	scale := maxNorm / norm
	for i := range update {
		update[i] = ref[i] + scale*(update[i]-ref[i])
	}
	return true
}

// ByName resolves an aggregator from its configuration name: mean, median,
// trimmed, norm-clip, or krum. trim parameterizes the trimmed mean (0 means
// its default) and is ignored by the others.
func ByName(name string, trim float64) (Aggregator, error) {
	switch name {
	case "mean":
		return Mean{}, nil
	case "median":
		return Median{}, nil
	case "trimmed":
		return TrimmedMean{Trim: trim}, nil
	case "norm-clip":
		return NormClip{}, nil
	case "krum":
		return Krum{}, nil
	}
	return nil, fmt.Errorf("robust: unknown aggregator %q (mean, median, trimmed, norm-clip, krum)", name)
}
