package fl

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

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

// FuzzTopKDeltaBodies holds TopKDelta to refTopKDelta: the same indices and
// the same values, bit for bit, for every finite delta — ties at τ (deltas
// drawn from a few levels), all-zero deltas, subnormal and huge magnitudes,
// k ≤ 0, k = 1 and k ≥ n among them. A delta with a non-finite coordinate
// must be reported and select nothing. A shape with its top bit set draws
// sampleMinN + n weights, so the sampled threshold runs; its last shapes
// make the sample misjudge — mass on the sample stride gathers fewer than k,
// mass off it more than the limit — and push the selection onto the
// histogram's threshold.
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
	for shape := uint8(0x80); shape < 0x8A; shape++ {
		f.Add(uint16(60000), int16(1000), int64(shape), shape, 1.0)
	}
	f.Add(uint16(0), int16(300), int64(11), uint8(0x85), math.Inf(1))
	f.Add(uint16(0), int16(300), int64(12), uint8(0x85), math.NaN())
	f.Fuzz(func(t *testing.T, n uint16, k int16, seed int64, shape uint8, scale float64) {
		rng := rand.New(rand.NewSource(seed))
		size := int(n) % 2048
		if shape&0x80 != 0 {
			size = sampleMinN + int(n)
		}
		stride := max(size/sampleN, 1)
		w, ref := make([]float64, size), make([]float64, size)
		for i := range w {
			ref[i] = rng.NormFloat64()
			var d float64
			switch shape & 0x7F % 10 {
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
			case 6: // all ties
				d = scale
			case 7: // layered scales: eight layers, each 16× the last
				d = scale * math.Ldexp(rng.NormFloat64(), 4*(8*i/size))
			case 8: // mass on the sample stride
				d = scale * rng.NormFloat64()
				if i%stride != 0 {
					d *= 1e-3
				}
			case 9: // mass off the sample stride
				d = scale * rng.NormFloat64()
				if i%stride == 0 {
					d *= 1e-3
				}
			}
			if rng.Intn(2) == 0 {
				d = -d
			}
			w[i] = ref[i] + d
		}
		checkTopKDelta(t, w, ref, int(k), []uint32{7}, []float64{7})
	})
}

// checkTopKDelta holds TopKDeltaFinite(w, ref, k, idx, vals) to
// refTopKDelta, and a non-finite delta to selecting nothing.
func checkTopKDelta(t *testing.T, w, ref []float64, k int, idx []uint32, vals []float64) ([]uint32, []float64) {
	t.Helper()
	finite := true
	for i := range w {
		if d := math.Abs(w[i] - ref[i]); math.IsNaN(d) || math.IsInf(d, 0) {
			finite = false
		}
	}
	idx, vals, ok := TopKDeltaFinite(w, ref, k, idx, vals)
	if ok != finite {
		t.Fatalf("finite = %v, want %v", ok, finite)
	}
	if !finite {
		if len(idx) != 0 || len(vals) != 0 {
			t.Fatalf("a non-finite delta selected %v", idx)
		}
		return idx, vals
	}
	wantIdx, wantVals := refTopKDelta(w, ref, k)
	if len(idx) != len(wantIdx) {
		t.Fatalf("n=%d k=%d: selected %d pairs, reference %d", len(w), k, len(idx), len(wantIdx))
	}
	for i := range idx {
		if idx[i] != wantIdx[i] || math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
			t.Fatalf("n=%d k=%d: pair %d is (%d, %v), reference (%d, %v)", len(w), k, i, idx[i], vals[i], wantIdx[i], wantVals[i])
		}
	}
	return idx, vals
}

// topKPath names the threshold TopKDeltaFinite(w, ref, k) selects with.
func topKPath(w, ref []float64, k int) string {
	k = min(k, len(w))
	g, limit := sampledThreshold(w, ref, k)
	if limit == 0 {
		return "histogram"
	}
	idx, _, ok := gather(w, ref, g, limit, nil, nil)
	switch {
	case !ok:
		return "over-gather"
	case len(idx) < k:
		return "under-gather"
	}
	return "sampled"
}

// fleetDelta returns a 100 000-weight model and its reference, the shape of
// the benchmark's sparse pushes, with delta[i] = f(i, a standard normal draw).
func fleetDelta(seed int64, f func(i int, z float64) float64) (w, ref []float64) {
	rng := rand.New(rand.NewSource(seed))
	w, ref = make([]float64, 100_000), make([]float64, 100_000)
	for i := range w {
		ref[i] = rng.NormFloat64()
		w[i] = ref[i] + f(i, rng.NormFloat64())
	}
	return w, ref
}

// at is v at index j and z elsewhere.
func at(i, j int, v, z float64) float64 {
	if i == j {
		return v
	}
	return z
}

// TestTopKDeltaPaths drives each threshold — the sample's, and the
// histogram's after the sample gathered too few, after it gathered too many
// and below the sampling size — and holds each to refTopKDelta. It also holds
// the capacity a call leaves in idx and vals to TopKDelta's bound.
func TestTopKDeltaPaths(t *testing.T) {
	const k, stride = 1000, 100_000 / sampleN
	cases := []struct {
		name, path string
		delta      func(i int, z float64) float64
	}{
		{"normal", "sampled", func(_ int, z float64) float64 { return z }},
		{"layered", "sampled", func(i int, z float64) float64 { return math.Ldexp(z, i/12_500) }},
		{"sparse", "under-gather", func(i int, z float64) float64 { return z * float64(i%400/399) }},
		{"on-stride", "under-gather", func(i int, z float64) float64 { return z * float64(1-min(i%stride, 1)) }},
		{"all-zero", "under-gather", func(int, float64) float64 { return 0 }},
		{"off-stride", "over-gather", func(i int, z float64) float64 { return z * float64(min(i%stride, 1)) }},
		{"all-ties", "over-gather", func(i int, _ float64) float64 { return float64(i%2*2 - 1) }},
		{"few-levels", "over-gather", func(i int, _ float64) float64 { return float64(i%5 - 2) }},
		{"nan-off-sample", "sampled", func(i int, z float64) float64 { return at(i, 5, math.NaN(), z) }},
		{"inf-in-sample", "sampled", func(i int, z float64) float64 { return at(i, 0, math.Inf(1), z) }},
		// A NaN in the sample makes its threshold arbitrary: any path will do.
		{"nan-in-sample", "", func(i int, z float64) float64 { return at(i, 0, math.NaN(), z) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, ref := fleetDelta(1, c.delta)
			if got := topKPath(w, ref, k); c.path != "" && got != c.path {
				t.Fatalf("threshold %s, want %s", got, c.path)
			}
			idx, vals := checkTopKDelta(t, w, ref, k, nil, nil)
			bound := len(w)
			if c.path == "sampled" {
				bound = 5820
			}
			if cap(idx) > bound || cap(vals) > bound {
				t.Fatalf("left capacity %d/%d, over the bound %d", cap(idx), cap(vals), bound)
			}
		})
	}
	w, ref := fleetDelta(2, func(_ int, z float64) float64 { return z })
	if got := topKPath(w[:sampleMinN-1], ref, k); got != "histogram" {
		t.Fatalf("%d weights: threshold %s, want histogram", sampleMinN-1, got)
	}
	checkTopKDelta(t, w[:sampleMinN-1], ref, k, nil, nil)
}

// TestTopKDeltaAllocFree: a warm selection into reused destinations at the
// fleet's shape allocates nothing — its candidates live in the destinations
// and its sample on the stack.
func TestTopKDeltaAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w, ref := fleetDelta(3, func(_ int, z float64) float64 { return z })
	idx, vals := TopKDelta(w, ref, 1000, nil, nil)
	if allocs := testing.AllocsPerRun(50, func() { idx, vals = TopKDelta(w, ref, 1000, idx, vals) }); allocs != 0 {
		t.Fatalf("a warm TopKDelta allocates %.1f objects, want 0", allocs)
	}
}
