package fl

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestAsyncMixSparseLosslessMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 257
	ref := make([]float64, n)
	w := make([]float64, n)
	for i := range ref {
		ref[i] = rng.NormFloat64()
		w[i] = ref[i]
		if i%3 != 0 { // leave every third coordinate unchanged
			w[i] += rng.NormFloat64()
		}
	}
	idx, vals := TopKDelta(w, ref, n, nil, nil)

	global := make([]float64, n)
	globalDense := make([]float64, n)
	for i := range global {
		global[i] = rng.NormFloat64()
		globalDense[i] = global[i]
	}
	AsyncMixSparse(global, ref, idx, vals, 0.37)
	AsyncMix(globalDense, w, 0.37)
	for i := range global {
		if global[i] != globalDense[i] {
			t.Fatalf("coordinate %d: sparse %v != dense %v (bitwise)", i, global[i], globalDense[i])
		}
	}
}

func TestAsyncMixSparseOverlay(t *testing.T) {
	global := []float64{10, 20, 30, 40}
	ref := []float64{0, 2, 4, 6}
	// Only index 2 transmitted: the others mix toward ref, not toward w.
	AsyncMixSparse(global, ref, []uint32{2}, []float64{100}, 0.5)
	want := []float64{5, 11, 65, 23}
	for i := range want {
		if global[i] != want[i] {
			t.Fatalf("got %v, want %v", global, want)
		}
	}
}

func TestTopKDeltaSelection(t *testing.T) {
	ref := []float64{0, 0, 0, 0, 0, 0}
	w := []float64{0.1, -5, 0, 3, -0.2, 3}
	idx, vals := TopKDelta(w, ref, 3, nil, nil)
	wantIdx := []uint32{1, 3, 5}
	if len(idx) != len(wantIdx) {
		t.Fatalf("selected %v, want indices %v", idx, wantIdx)
	}
	for i := range wantIdx {
		if idx[i] != wantIdx[i] || vals[i] != w[wantIdx[i]] {
			t.Fatalf("pair %d: (%d,%v), want (%d,%v)", i, idx[i], vals[i], wantIdx[i], w[wantIdx[i]])
		}
	}
	// Ascending order is part of the contract (the wire format requires it).
	if !sort.SliceIsSorted(idx, func(a, b int) bool { return idx[a] < idx[b] }) {
		t.Fatalf("indices not ascending: %v", idx)
	}
}

func TestTopKDeltaSkipsUnchanged(t *testing.T) {
	ref := []float64{1, 2, 3}
	w := []float64{1, 2, 3}
	idx, vals := TopKDelta(w, ref, 3, nil, nil)
	if len(idx) != 0 || len(vals) != 0 {
		t.Fatalf("unchanged model produced pairs: %v %v", idx, vals)
	}
	w[1] = 7
	idx, _ = TopKDelta(w, ref, 3, idx, vals)
	if len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("got %v, want [1]", idx)
	}
}

func TestTopKDeltaTieBreaking(t *testing.T) {
	ref := make([]float64, 5)
	w := []float64{1, -1, 1, -1, 1} // all ties at |d| = 1
	idx, _ := TopKDelta(w, ref, 3, nil, nil)
	want := []uint32{0, 1, 2} // index order, deterministically
	if len(idx) != 3 {
		t.Fatalf("selected %d pairs, want 3", len(idx))
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("tie-broken indices %v, want %v", idx, want)
		}
	}
}

func TestTopKDeltaDeterministicAndReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 512
	ref := make([]float64, n)
	w := make([]float64, n)
	for i := range ref {
		ref[i] = rng.NormFloat64()
		w[i] = ref[i] + rng.NormFloat64()
	}
	idx1, vals1 := TopKDelta(w, ref, 32, nil, nil)
	if len(idx1) != 32 {
		t.Fatalf("selected %d pairs, want 32", len(idx1))
	}
	idx2, vals2 := TopKDelta(w, ref, 32, idx1, vals1)
	if &idx2[0] != &idx1[0] || &vals2[0] != &vals1[0] {
		t.Fatal("destination slices were reallocated despite sufficient capacity")
	}
	// Selected coordinates really are the 32 largest |w-ref|.
	mags := make([]float64, n)
	for i := range mags {
		d := w[i] - ref[i]
		if d < 0 {
			d = -d
		}
		mags[i] = d
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
	tau := mags[31]
	for i, ix := range idx2 {
		d := w[ix] - ref[ix]
		if d < 0 {
			d = -d
		}
		if d < tau {
			t.Fatalf("pair %d (index %d) has |delta| %v below the 32nd largest %v", i, ix, d, tau)
		}
	}
}

// refTopKDelta is the top-k selection as it first shipped: |w−ref| into
// scratch, then a size-k min-heap over all n magnitudes for the threshold.
// It is the definition of the pairs TopKDelta must select for every finite
// delta.
func refTopKDelta(w, ref []float64, k int) ([]uint32, []float64) {
	var idx []uint32
	var vals []float64
	n := len(w)
	if k <= 0 || n == 0 {
		return idx, vals
	}
	if k > n {
		k = n
	}
	mags := make([]float64, n)
	for i := range mags {
		d := w[i] - ref[i]
		if d < 0 {
			d = -d
		}
		mags[i] = d
	}
	tau := refKthLargest(mags, k)
	above := 0
	for _, d := range mags {
		if d > tau {
			above++
		}
	}
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
	return idx, vals
}

// refKthLargest returns the k-th largest element of a (1 ≤ k ≤ len(a)).
func refKthLargest(a []float64, k int) float64 {
	h := append([]float64(nil), a[:k]...)
	for i := k/2 - 1; i >= 0; i-- {
		siftDownMin(h, i)
	}
	for _, v := range a[k:] {
		if v > h[0] {
			h[0] = v
			siftDownMin(h, 0)
		}
	}
	return h[0]
}

// FuzzTopKDeltaBodies holds TopKDelta to refTopKDelta: the same indices and
// the same values, bit for bit, for every finite delta — ties at τ (deltas
// drawn from a few levels), all-zero deltas, subnormal and huge magnitudes,
// k ≤ 0, k = 1 and k ≥ n among them. A delta with a non-finite coordinate
// must be reported and select nothing.
func FuzzTopKDeltaBodies(f *testing.F) {
	f.Add(uint16(257), int16(16), int64(1), uint8(0), 1.0)
	f.Add(uint16(64), int16(8), int64(2), uint8(1), 1.0)
	f.Add(uint16(33), int16(5), int64(3), uint8(2), 0.0)
	f.Add(uint16(100), int16(0), int64(4), uint8(0), 1.0)
	f.Add(uint16(100), int16(-3), int64(5), uint8(1), 1.0)
	f.Add(uint16(100), int16(1), int64(6), uint8(3), 1e-310)
	f.Add(uint16(100), int16(100), int64(7), uint8(1), 1.0)
	f.Add(uint16(50), int16(200), int64(8), uint8(4), 1e300)
	f.Add(uint16(1), int16(1), int64(9), uint8(5), 1.0)
	f.Add(uint16(40), int16(10), int64(10), uint8(5), math.NaN())
	f.Fuzz(func(t *testing.T, n uint16, k int16, seed int64, shape uint8, scale float64) {
		rng := rand.New(rand.NewSource(seed))
		w, ref := make([]float64, n%2048), make([]float64, n%2048)
		for i := range w {
			ref[i] = rng.NormFloat64()
			var d float64
			switch shape % 6 {
			case 0: // continuous
				d = scale * rng.NormFloat64()
			case 1: // a few levels: ties at τ
				d = scale * float64(rng.Intn(5)-2)
			case 2: // all zero
			case 3: // subnormal steps around zero
				ref[i] = 0
				d = float64(rng.Intn(7)-3) * 5e-324
			case 4: // magnitudes over the whole exponent range
				d = math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
			case 5: // the fuzzer's value at a few coordinates, NaN and Inf included
				if rng.Intn(8) == 0 {
					d = scale
				}
			}
			if rng.Intn(2) == 0 {
				d = -d
			}
			w[i] = ref[i] + d
		}
		finite := true
		for i := range w {
			if d := math.Abs(w[i] - ref[i]); math.IsNaN(d) || math.IsInf(d, 0) {
				finite = false
			}
		}
		idx, vals, ok := TopKDeltaFinite(w, ref, int(k), []uint32{7}, []float64{7})
		if ok != finite {
			t.Fatalf("finite = %v, want %v", ok, finite)
		}
		if !finite {
			if len(idx) != 0 || len(vals) != 0 {
				t.Fatalf("a non-finite delta selected %v", idx)
			}
			return
		}
		wantIdx, wantVals := refTopKDelta(w, ref, int(k))
		if len(idx) != len(wantIdx) {
			t.Fatalf("n=%d k=%d: selected %d pairs, reference %d", len(w), k, len(idx), len(wantIdx))
		}
		for i := range idx {
			if idx[i] != wantIdx[i] || math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("n=%d k=%d: pair %d is (%d, %v), reference (%d, %v)", len(w), k, i, idx[i], vals[i], wantIdx[i], wantVals[i])
			}
		}
	})
}

// TestTopKDeltaAllocFree: a warm selection into reused destinations
// allocates nothing — its scratch comes from the pool and its histogram
// lives on the stack.
func TestTopKDeltaAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(3))
	w, ref := make([]float64, 4096), make([]float64, 4096)
	for i := range w {
		w[i], ref[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	idx, vals := TopKDelta(w, ref, 64, nil, nil)
	if allocs := testing.AllocsPerRun(50, func() { idx, vals = TopKDelta(w, ref, 64, idx, vals) }); allocs != 0 {
		t.Fatalf("a warm TopKDelta allocates %.1f objects, want 0", allocs)
	}
}
