package tensor

import "math"

// QuantizeU8 is the uplink's affine int8 quantizer. It writes
// round((w[i] − lo) / scale), half away from zero, to dst[i] (len(dst) must
// be at least len(w)) and returns lo, the least element of w, and scale =
// (max − lo) / 255. A zero minimum is −0 if any element is −0, as math.Min
// folds it; the sign reaches the wire. A constant vector gives scale 0 and
// zero bytes, an empty one lo = scale = 0. If some element is ±Inf or NaN,
// lo and scale are NaN and the bytes are zero: a quantized payload cannot
// carry such a vector, and the caller sends it another way.
//
// Like axpy, the quantizer has a Go body and, on amd64 with AVX2, an assembly
// body (kernels_amd64.s), each in two passes — min/max with the finiteness
// check, then the quantize pass — that give the same bytes for every input.
func QuantizeU8(dst []uint8, w []float64) (lo, scale float64) {
	dst = dst[:len(w)]
	if len(w) == 0 {
		return 0, 0
	}
	lo, hi, finite := minMax(w)
	if !finite {
		clear(dst)
		return math.NaN(), math.NaN()
	}
	if lo == 0 {
		lo = 0
		for _, v := range w {
			if v == 0 && math.Signbit(v) {
				lo = v
				break
			}
		}
	}
	if !(hi > lo) {
		clear(dst)
		return lo, 0
	}
	scale = (hi - lo) / 255
	quantize(dst, w, lo, scale)
	return lo, scale
}

// minMaxGo is minMax's Go body: the least and the greatest element of w (a
// zero minimum with either sign), and whether every element is finite.
func minMaxGo(w []float64) (lo, hi float64, finite bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	var carry uint64 // bit 63 set by a non-finite v (expMask)
	for _, v := range w {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		carry |= math.Float64bits(v)&expMask + 1<<52
	}
	return lo, hi, carry>>63 == 0
}

// quantizeGo is quantize's Go body. x is at most about 383 (the scale is a
// 255th of the range, rounded) unless the scale underflowed to zero, when x
// is +Inf or NaN and math.Round would leave it as it is. Otherwise t =
// trunc(x), and the fraction x − t is exact, and so is its difference from
// 0.5 where that decides anything: adding 1 when that difference has no sign
// bit rounds half away from zero exactly as math.Round does, with no branch
// to mispredict.
func quantizeGo(dst []uint8, w []float64, lo, scale float64) {
	dst = dst[:len(w)]
	for i, v := range w {
		x := (v - lo) / scale
		if !(x < 1<<31) {
			dst[i] = uint8(x)
			continue
		}
		t := int32(x)
		t += 1 - int32(math.Float64bits(x-float64(t)-0.5)>>63)
		dst[i] = uint8(t)
	}
}
