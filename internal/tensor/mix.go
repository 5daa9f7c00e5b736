package tensor

import "math"

// Mix is the asynchronous aggregation's commit, w ← (1−α)·w + α·u: it writes
// (1−alpha)·a[i] + alpha·b[i] to dst[i], the two products rounded and then
// added, never fused. len(a) and len(b) must be at least len(dst); dst may be
// a itself (an in-place mix), but no other overlap. It reports whether every
// b[i] is finite, checked in the same pass; the caller discards dst when it
// is not.
//
// Like axpy, the mix has a Go body and, on amd64 with AVX2, an assembly body
// (kernels_amd64.s) that give the same bits for every input.
func Mix(dst, a, b []float64, alpha float64) (finite bool) {
	return mix(dst, a[:len(dst)], b[:len(dst)], alpha)
}

// MixU8 is Mix with an int8-quantized b: the value mixed in at i is
// lo + float64(q[i])·scale, the uplink codec's dequantization. len(a) and
// len(q) must be at least len(dst). Finiteness is checked on the dequantized
// values, since a finite lo and scale can still overflow.
func MixU8(dst, a []float64, q []uint8, lo, scale, alpha float64) (finite bool) {
	return mixU8(dst, a[:len(dst)], q[:len(dst)], lo, scale, alpha)
}

// MixAt is Mix at the indices idx alone, with vals[j] mixed in at idx[j]:
// the fix-up that turns a Mix toward a sparse push's base into a Mix toward
// the base overlaid with the pushed values. It checks nothing; every idx[j]
// must be in range of dst and a.
func MixAt(dst, a []float64, idx []uint32, vals []float64, alpha float64) {
	beta := 1 - alpha
	vals = vals[:len(idx)]
	for j, i := range idx {
		dst[i] = beta*a[i] + alpha*vals[j]
	}
}

// expMask is a float64's exponent field. An all-ones one (±Inf, NaN) plus one
// carries into bit 63; no other does, so OR-ing bits&expMask + 1<<52 over a
// vector and testing bit 63 checks it for finiteness without a branch.
const expMask = 0x7FF << 52

// mixGo is mix's Go body; a and b are len(dst) long.
func mixGo(dst, a, b []float64, alpha float64) bool {
	beta := 1 - alpha
	a, b = a[:len(dst)], b[:len(dst)]
	var carry uint64
	for i := range dst {
		v := b[i]
		carry |= math.Float64bits(v)&expMask + 1<<52
		dst[i] = beta*a[i] + alpha*v
	}
	return carry>>63 == 0
}

// mixU8Go is mixU8's Go body; a and q are len(dst) long.
func mixU8Go(dst, a []float64, q []uint8, lo, scale, alpha float64) bool {
	beta := 1 - alpha
	a, q = a[:len(dst)], q[:len(dst)]
	var carry uint64
	for i := range dst {
		v := lo + float64(q[i])*scale
		carry |= math.Float64bits(v)&expMask + 1<<52
		dst[i] = beta*a[i] + alpha*v
	}
	return carry>>63 == 0
}
