package fl

// Sparse-overlay strategy hooks for communication-efficient uplinks: a
// client that knows which reference model the server holds for it (flnet's
// last-acked reply) can ship only the k coordinates that moved most, as
// (index, new value) pairs. The server (flnet's commit) reconstructs the
// full update as the reference overlaid with those values and mixes it with
// the usual FedAsync step, element by element as AsyncMix does.
// Transmitting absolute values rather than differences makes the
// reconstruction exact: with k = len(w) the sparse push is bit-identical to
// a dense push, so sparsification is a pure wire-size lever whose only
// accuracy cost is the untransmitted (smallest-magnitude) coordinates
// reverting to the reference.

import (
	"math"

	"ecofl/internal/tensor"
)

// Magnitude buckets for top-k selection. A non-negative float64 orders like
// its bit pattern, so bits >> magShift — the 11 exponent bits and the top two
// mantissa bits, a quarter binade — is a bucket index that never decreases
// with |d|. 8192 uint32 counts are 32 KB, on the stack; masking the index,
// a no-op on a pattern without a sign bit, spares the bounds check.
const (
	magShift     = 50
	magBuckets   = 1 << (63 - magShift)
	magNonFinite = 0x7FF << (52 - magShift) // the first bucket of ±Inf and NaN
)

// TopKDelta selects the k coordinates where w diverges most from ref (by
// |w[i]−ref[i]|) and appends their indices (strictly ascending) and new
// values to idx[:0] and vals[:0], reusing the destination capacity.
// Coordinates that did not move at all are never selected, so the result
// may hold fewer than k pairs; ties at the selection threshold are broken
// deterministically in index order. k ≥ len(w) selects exactly the changed
// coordinates (a lossless sparse encoding of w against ref). Every
// |w[i]−ref[i]| must be finite; TopKDeltaFinite says whether it was.
func TopKDelta(w, ref []float64, k int, idx []uint32, vals []float64) ([]uint32, []float64) {
	idx, vals, _ = TopKDeltaFinite(w, ref, k, idx, vals)
	return idx, vals
}

// TopKDeltaFinite is TopKDelta that also reports whether every |w[i]−ref[i]|
// is finite. When one is not, it selects nothing and returns false: no
// selection ships a NaN, and a sparse push would silently revert it to ref.
func TopKDeltaFinite(w, ref []float64, k int, idx []uint32, vals []float64) ([]uint32, []float64, bool) {
	idx, vals = idx[:0], vals[:0]
	n := len(w)
	if n == 0 {
		return idx, vals, true
	}
	ref = ref[:n]
	// The magnitudes are computed once into pooled scratch (the training hot
	// path must not churn allocations) and kept unmutated, so the passes
	// below read the cheap single array instead of re-deriving |w−ref| from
	// two model-sized ones. The same pass histograms them by bucket.
	scratch := tensor.GetBufUninit(n)
	defer tensor.PutBuf(scratch)
	mags := scratch.Data[:n]
	var hist [magBuckets]uint32
	for i, v := range w {
		d := math.Abs(v - ref[i])
		mags[i] = d
		hist[math.Float64bits(d)>>magShift&(magBuckets-1)]++
	}
	for _, c := range hist[magNonFinite:] {
		if c != 0 {
			return idx, vals, false
		}
	}
	if k <= 0 {
		return idx, vals, true
	}
	k = min(k, n)

	// Selection threshold τ: the kth largest |w−ref|. Walking down from the
	// top bucket finds the one that holds it, with above larger magnitudes
	// in the buckets over it; τ is the (k−above)th largest in that bucket.
	b, above := magNonFinite-1, 0
	for above+int(hist[b]) < k {
		above += int(hist[b])
		b--
	}
	heap := tensor.GetBufUninit(k)
	top := bucketTop(mags, uint64(b), k-above, heap.Data)
	tau := top[0]
	// Every magnitude strictly above τ is in a higher bucket or among the
	// bucket's top candidates, so counting those counts them all (fewer than
	// k by definition of the kth largest). The remaining budget goes to
	// coordinates exactly at τ, taken in index order. A zero threshold means
	// fewer than k coordinates moved at all; transmitting v == ref[i] would
	// be a no-op, so ties at zero are skipped.
	for _, d := range top {
		if d > tau {
			above++
		}
	}
	tensor.PutBuf(heap)
	allowEq := 0
	if tau > 0 {
		allowEq = k - above
	}
	for i, d := range mags {
		switch {
		case d > tau:
		case d == tau && tau > 0 && allowEq > 0:
			allowEq--
		default:
			continue
		}
		idx = append(idx, uint32(i))
		vals = append(vals, w[i])
	}
	return idx, vals, true
}

// bucketTop returns the k largest (1 ≤ k ≤ the bucket's count) of the
// magnitudes in bucket b as a min-heap in h[:k] (len(h) ≥ k), its root the kth
// largest. The heap's root is the running threshold: a candidate that does
// not beat it costs one compare, and every other magnitude is rejected by its
// bucket alone. Value arithmetic only — deterministic by construction.
func bucketTop(mags []float64, b uint64, k int, h []float64) []float64 {
	h = h[:0]
	for _, d := range mags {
		if math.Float64bits(d)>>magShift != b {
			continue
		}
		switch {
		case len(h) < k:
			if h = append(h, d); len(h) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftDownMin(h, i)
				}
			}
		case d > h[0]:
			h[0] = d
			siftDownMin(h, 0)
		}
	}
	return h
}

// siftDownMin restores the min-heap property of h below index i.
func siftDownMin(h []float64, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
