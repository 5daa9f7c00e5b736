// Package stats provides the statistical primitives Eco-FL's grouping
// scheduler relies on: label-distribution divergences (KL, Jensen–Shannon)
// and a small deterministic K-means used to cluster clients by response
// latency (paper §5.2).
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Distribution is a discrete probability distribution over class labels.
type Distribution []float64

// NewUniform returns the uniform (IID) distribution over k classes.
func NewUniform(k int) Distribution {
	d := make(Distribution, k)
	for i := range d {
		d[i] = 1 / float64(k)
	}
	return d
}

// FromCounts normalizes label counts into a distribution. An all-zero count
// vector yields the uniform distribution.
func FromCounts(counts []int) Distribution {
	d := make(Distribution, len(counts))
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return NewUniform(len(counts))
	}
	for i, c := range counts {
		d[i] = float64(c) / float64(total)
	}
	return d
}

// Mix returns the weighted mixture w·a + (1−w)·b.
func Mix(a, b Distribution, w float64) Distribution {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: Mix length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Distribution, len(a))
	for i := range a {
		out[i] = w*a[i] + (1-w)*b[i]
	}
	return out
}

// KL returns the Kullback–Leibler divergence D(p‖q) in bits (log base 2).
// Terms with p_i = 0 contribute 0; p_i > 0 with q_i = 0 yields +Inf.
func KL(p, q Distribution) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: KL length mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if q[i] == 0 {
			return math.Inf(1)
		}
		s += p[i] * math.Log2(p[i]/q[i])
	}
	return s
}

// JS returns the Jensen–Shannon divergence between p and q in bits.
// It is symmetric and bounded in [0, 1], the properties the paper cites
// for preferring it over raw KL (§5.2, Eq. 4).
func JS(p, q Distribution) float64 {
	m := Mix(p, q, 0.5)
	js := 0.5*KL(p, m) + 0.5*KL(q, m)
	// Clamp tiny negative values from floating-point noise.
	if js < 0 {
		return 0
	}
	return js
}

// ---------------------------------------------------------------- K-means

// KMeans1D clusters scalar values into k groups with Lloyd's algorithm and
// deterministic quantile initialization. It returns the assignment of each
// value and the cluster centers sorted ascending; cluster i has the i-th
// smallest center. rng is used only to break empty-cluster re-seeding ties.
func KMeans1D(rng *rand.Rand, values []float64, k int) (assign []int, centers []float64) {
	n := len(values)
	if k <= 0 {
		panic("stats: KMeans1D needs k > 0")
	}
	if k > n {
		k = n
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	centers = make([]float64, k)
	for i := range centers {
		// Quantile init: evenly spaced order statistics.
		idx := (2*i + 1) * n / (2 * k)
		if idx >= n {
			idx = n - 1
		}
		centers[i] = sorted[idx]
	}
	assign = make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, v := range values {
			best, bd := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := math.Abs(v - ctr); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			} else if n > 0 {
				centers[c] = values[rng.Intn(n)]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Sort centers ascending and remap assignments.
	type cc struct {
		center float64
		old    int
	}
	order := make([]cc, k)
	for i, c := range centers {
		order[i] = cc{c, i}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].center < order[j].center })
	remap := make([]int, k)
	sortedCenters := make([]float64, k)
	for newIdx, o := range order {
		remap[o.old] = newIdx
		sortedCenters[newIdx] = o.center
	}
	centers = sortedCenters
	for i := range assign {
		assign[i] = remap[assign[i]]
	}
	return assign, centers
}
