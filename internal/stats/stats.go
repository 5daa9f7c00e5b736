// Package stats provides the statistical primitives Eco-FL's grouping
// scheduler relies on: the Jensen–Shannon divergence of pooled label counts
// from the IID distribution (Eq. 4) and a small deterministic K-means used to
// cluster clients by response latency (paper §5.2).
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// JSCounts returns the Jensen–Shannon divergence, in bits, of the label
// distribution of the pooled counts a+b from the uniform (IID) distribution
// over len(a) classes: Eq. 4's JS(π_{g∪n}, π_iid), with a a group's counts
// and b a candidate client's. b may be nil, for a's distribution alone. It is
// O(len(a)) and allocates nothing.
//
// It is, bit for bit, the composition JS(FromCounts(a+b), NewUniform(len(a)))
// that the tests keep as its reference: the same floating-point operations in
// the same order. p_i = c_i/total, or the uniform 1/k when every count is 0;
// m_i = 0.5·p_i + 0.5·u_i, as the mixture forms it; KL(p‖m) and KL(u‖m) each
// summed over ascending classes, skipping p_i = 0; then 0.5·KLp + 0.5·KLu,
// clamped at 0. A grouping decided on it is the grouping decided before.
func JSCounts(a, b []int) float64 {
	if b != nil && len(b) != len(a) {
		panic(fmt.Sprintf("stats: JSCounts length mismatch %d vs %d", len(a), len(b)))
	}
	total := 0
	for i, c := range a {
		if b != nil {
			c += b[i]
		}
		total += c
	}
	u := 1 / float64(len(a))
	var klp, klu float64
	for i, c := range a {
		if b != nil {
			c += b[i]
		}
		p := u
		if total != 0 {
			p = float64(c) / float64(total)
		}
		m := 0.5*p + 0.5*u
		if p != 0 {
			klp += p * math.Log2(p/m)
		}
		klu += u * math.Log2(u/m)
	}
	js := 0.5*klp + 0.5*klu
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
