package fl

// Sparse-overlay strategy hooks for communication-efficient uplinks: a
// client that knows which reference model the server holds for it (flnet's
// last-acked reply) can ship only the k coordinates that moved most, as
// (index, new value) pairs. The server (flnet's commit) reconstructs the
// full update as the reference overlaid with those values and mixes it with
// the usual FedAsync step, through the kernel AsyncMix uses (tensor.Mix).
// Transmitting absolute values rather than differences makes the
// reconstruction exact: with k = len(w) the sparse push is bit-identical to
// a dense push, so sparsification is a pure wire-size lever whose only
// accuracy cost is the untransmitted (smallest-magnitude) coordinates
// reverting to the reference.

import (
	"math"
	"math/bits"
	"slices"
)

// Magnitude buckets for the histogram threshold. A non-negative float64
// orders like its bit pattern, so bits >> magShift — the 11 exponent bits and
// the top two mantissa bits, a quarter binade — is a bucket index that never
// decreases with |d|. 8192 uint32 counts are 32 KB, on the stack; masking the
// index, a no-op on a pattern without a sign bit, spares the bounds check.
const (
	magShift     = 50
	magBuckets   = 1 << (63 - magShift)
	magNonFinite = 0x7FF << (52 - magShift) // the first bucket of ±Inf and NaN
	sampleN      = 1024                     // magnitudes the sampled threshold reads, at a fixed stride
	sampleMinN   = 16 * sampleN             // fewer weights go straight to the histogram
)

// TopKDelta selects the k coordinates where w diverges most from ref (by
// |w[i]−ref[i]|) and appends their indices (strictly ascending) and new
// values to idx[:0] and vals[:0], reusing the destination capacity.
// Coordinates that did not move at all are never selected, so the result
// may hold fewer than k pairs; ties at the selection threshold are broken
// deterministically in index order. k ≥ len(w) selects exactly the changed
// coordinates (a lossless sparse encoding of w against ref). Every
// |w[i]−ref[i]| must be finite; TopKDeltaFinite says whether it was.
//
// idx and vals also hold the candidates the selection gathers, so a call can
// leave them with more capacity than the pairs it returns: at most the larger
// of their capacity on entry and len(w), and on a delta the sampled threshold
// fits, at most 2·(2⌈1024·k/n⌉+8)·⌊n/1024⌋ (5 820 at 100 000 → 1 000).
func TopKDelta(w, ref []float64, k int, idx []uint32, vals []float64) ([]uint32, []float64) {
	idx, vals, _ = TopKDeltaFinite(w, ref, k, idx, vals)
	return idx, vals
}

// TopKDeltaFinite is TopKDelta that also reports whether every |w[i]−ref[i]|
// is finite. When one is not, it selects nothing and returns false: no
// selection ships a NaN, and a sparse push would silently revert it to ref.
//
// One pass gathers the coordinates at or above a threshold g set by a strided
// sample; an exact select over those few finds τ, the kth largest |w−ref|. If
// fewer than k reach g, or over twice the expected number, the histogram's
// bucket edge sets g and the gather runs again: the data sets only the speed.
func TopKDeltaFinite(w, ref []float64, k int, idx []uint32, vals []float64) ([]uint32, []float64, bool) {
	ref, k = ref[:len(w)], min(k, len(w))
	if g, limit := sampledThreshold(w, ref, k); limit > 0 {
		var ok bool
		if idx, vals, ok = gather(w, ref, g, limit, idx, vals); ok && len(idx) >= k {
			return selectTop(w, ref, k, idx, vals)
		}
	}
	idx, vals, _ = gather(w, ref, bucketEdge(w, ref, k), len(w), idx, vals)
	return selectTop(w, ref, k, idx, vals)
}

// sampledThreshold returns the sample's rank-(2⌈sampleN·k/n⌉+8) magnitude,
// about twice k's share, and a gather limit of twice the coordinates that
// rank stands for: limit 0 when w is too small or k over an eighth of it. A
// NaN sampled yields some g; the gather or the selection meets it again.
func sampledThreshold(w, ref []float64, k int) (g float64, limit int) {
	n := len(w)
	if n < sampleMinN || k <= 0 || k > n/8 {
		return 0, 0
	}
	var s [sampleN]float64
	stride := n / sampleN
	for j := range s {
		s[j] = math.Abs(w[j*stride] - ref[j*stride])
	}
	rank := 2*((sampleN*k+n-1)/n) + 8
	return kthLargest(s[:], rank), 2 * rank * stride
}

// bucketEdge returns the lower edge of the histogram bucket of the kth
// largest finite |w−ref| — the lowest bucket's if fewer than k are finite,
// +Inf if k ≤ 0 — so a gather at it also meets every non-finite one.
func bucketEdge(w, ref []float64, k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	var hist [magBuckets]uint32
	for i, v := range w {
		hist[math.Float64bits(math.Abs(v-ref[i]))>>magShift&(magBuckets-1)]++
	}
	b, above := magNonFinite-1, 0
	for b > 0 && above+int(hist[b]) < k {
		above += int(hist[b])
		b--
	}
	return math.Float64frombits(uint64(b) << magShift)
}

// gather appends to idx[:0] and vals[:0], in index order, each coordinate
// whose |w−ref| is neither below g nor zero (NaN included) and its magnitude,
// growing them to at most limit; a candidate past limit stops it with false.
func gather(w, ref []float64, g float64, limit int, idx []uint32, vals []float64) ([]uint32, []float64, bool) {
	g = max(g, math.SmallestNonzeroFloat64)
	ref = ref[:len(w)]
	idx, vals = idx[:0], vals[:0]
	for i, v := range w {
		if d := math.Abs(v - ref[i]); !(d < g) {
			if len(idx) == limit {
				return idx, vals, false
			}
			idx, vals = appendCapped(idx, uint32(i), limit), appendCapped(vals, d, limit)
		}
	}
	return idx, vals, true
}

// appendCapped is append that never grows s past limit elements.
func appendCapped[T any](s []T, v T, limit int) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, min(limit, 2*len(s)+64)), s...)
	}
	return append(s, v)
}

// selectTop keeps in place, in index order, the pairs TopKDelta selects from
// candidates that include every coordinate at or above τ: all above τ (fewer
// than k), then those at τ in index order up to k. Fewer than k candidates
// means fewer than k coordinates moved: τ is zero and each one is selected.
func selectTop(w, ref []float64, k int, idx []uint32, vals []float64) ([]uint32, []float64, bool) {
	tau, allowEq := 0.0, k
	if k > 0 && len(vals) >= k {
		tau = kthLargest(vals, k)
	}
	for _, d := range vals {
		if !(d <= math.MaxFloat64) {
			return idx[:0], vals[:0], false
		}
		if d > tau {
			allowEq--
		}
	}
	out := 0
	for _, i := range idx {
		switch d := math.Abs(w[i] - ref[i]); {
		case d > tau:
		case d == tau && allowEq > 0:
			allowEq--
		default:
			continue
		}
		idx[out], vals[out] = i, w[i]
		out++
	}
	return idx[:out], vals[:out], true
}

// kthLargest returns the kth largest (1 ≤ k ≤ len(a)) of a (some element if
// a holds a NaN), reordering a: Hoare partitions around the middle element,
// then a sort of what is left after 3·log2(len(a)) of them — never quadratic.
func kthLargest(a []float64, k int) float64 {
	t := len(a) - k // the answer's index in ascending order
	lo, hi := 0, len(a)-1
	for budget := 3 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(a[lo : hi+1])
			break
		}
		p := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case t <= j:
			hi = j
		case t >= i:
			lo = i
		default: // j < t < i: a[t] equals the pivot
			return a[t]
		}
	}
	return a[t]
}
