package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The reference kernels: naive triple loops that form every output element
// as one running sum over ascending k, skipping a zero multiplier where the
// production kernels do (MatMul, MatMulAT) and not where they do not
// (MatMulBT). They are the definition of the arithmetic the production
// kernels must reproduce bit for bit, under the Go and the assembly bodies
// alike; the A/B tests beside this one compare the production kernels only
// with themselves.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				if av := a.Data[i*k+kk]; av != 0 {
					s += av * b.Data[kk*n+j]
				}
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func refMatMulAT(a, b *Tensor) *Tensor {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				if av := a.Data[kk*m+i]; av != 0 {
					s += av * b.Data[kk*n+j]
				}
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func refMatMulBT(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Rows()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// sameBits reports whether got and want agree element for element in their
// float64 bit patterns (so −0 ≠ +0 and a value one ulp off fails). Two NaNs
// count as equal whatever their payload: which operand's payload an addition
// of two NaNs keeps depends on the operand order the compiler picked, not on
// the order of summation.
func sameBits(got, want *Tensor) (int, bool) {
	if len(got.Data) != len(want.Data) {
		return -1, false
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i, false
		}
	}
	return 0, true
}

// forEachBody runs fn once per kernel body this build can select — the Go
// bodies always, the assembly ones where useAsm started out true — with
// useAsm set accordingly, and restores it afterwards.
func forEachBody(t *testing.T, fn func(t *testing.T)) {
	bodies := []bool{false}
	if useAsm {
		bodies = append(bodies, true)
	}
	saved := useAsm
	defer func() { useAsm = saved }()
	for _, asm := range bodies {
		useAsm = asm
		name := "go"
		if asm {
			name = "asm"
		}
		t.Run(name, fn)
	}
}

// TestKernelsMatchReference is the cross-commit arithmetic pin: a kernel
// that reassociated a sum, fused a multiply-add or dropped the zero skip
// would still equal itself at every parallelism, but not these loops. It
// runs under every body the build has.
func TestKernelsMatchReference(t *testing.T) {
	type shape struct{ m, k, n int }
	shapes := []shape{
		{10, 32, 64}, {10, 64, 10}, // fedround forward: x·W1, h·W2
		{32, 10, 64}, {64, 10, 10}, // the same step's weight-gradient shapes (k = batch)
		{10, 10, 64}, {10, 64, 32}, // and its input-gradient shapes
		{61, 53, 67}, {128, 64, 96}, // above the parallel threshold: row blocks with lo > 0
		{7, 150, 9}, // a long k: dozens of compacted groups per output row
	}
	// Every remainder mod 4 of k, up to three groups of four; every remainder
	// mod 4 and mod 8 of n around the vector bodies' four- and eight-wide
	// steps. Five rows: rows 0–3 of a (columns 0–3 of aT) hold a zero at
	// that position of every group of four, row 4 none.
	for k := 1; k <= 13; k++ {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 65} {
			shapes = append(shapes, shape{5, k, n})
		}
	}
	negZero := math.Copysign(0, -1)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(17))
	// zeroOrValue makes a multiplier: an exact zero — +0 or −0 — where zero is
	// set, otherwise a normal value or, one time in eight, a subnormal one.
	zeroOrValue := func(v float64, zero bool) float64 {
		switch {
		case zero && rng.Intn(2) == 0:
			return negZero
		case zero:
			return 0
		case rng.Intn(8) == 0:
			return v * 1e-310
		}
		return v
	}
	forEachBody(t, func(t *testing.T) {
		for _, width := range []int{1, 4} {
			for _, s := range shapes {
				a := Randn(rng, 1, s.m, s.k)  // MatMul's and MatMulBT's left operand
				aT := Randn(rng, 1, s.k, s.m) // MatMulAT's
				b := Randn(rng, 1, s.k, s.n)  // MatMul's and MatMulAT's right operand
				bT := Randn(rng, 1, s.n, s.k) // MatMulBT's
				for i := 0; i < s.m; i++ {
					for kk := 0; kk < s.k; kk++ {
						// ReLU-like: about half the multipliers are exact zeros,
						// except in the rows that place them by position.
						zero := rng.Intn(2) == 0
						if s.m == 5 {
							zero = kk%4 == i
						}
						a.Data[i*s.k+kk] = zeroOrValue(a.Data[i*s.k+kk], zero)
						aT.Data[kk*s.m+i] = zeroOrValue(aT.Data[kk*s.m+i], zero)
					}
				}
				for i := range b.Data {
					if rng.Intn(8) == 0 {
						b.Data[i] *= 1e-310
					}
				}
				// ±Inf and NaN in b exactly where a multiplier is zero: skipped,
				// they leave that product out of the sum; where the other
				// kernel's multiplier is non-zero they come through.
				for kk := 0; kk < s.k; kk++ {
					if a.Data[kk] == 0 { // row 0 of a
						b.Data[kk*s.n+rng.Intn(s.n)] = special[rng.Intn(len(special))]
					}
					if aT.Data[kk*s.m] == 0 { // column 0 of aT
						b.Data[kk*s.n+rng.Intn(s.n)] = special[rng.Intn(len(special))]
					}
				}
				bT.Data[rng.Intn(len(bT.Data))] = special[rng.Intn(len(special))]

				for _, c := range []struct {
					name      string
					got, want *Tensor
				}{
					{"MatMulInto", MatMulInto(New(s.m, s.n), a, b, width), refMatMul(a, b)},
					{"MatMulATInto", MatMulATInto(New(s.m, s.n), aT, b, width), refMatMulAT(aT, b)},
					{"MatMulBTInto", MatMulBTInto(New(s.m, s.n), a, bT, width), refMatMulBT(a, bT)},
				} {
					if i, ok := sameBits(c.got, c.want); !ok {
						t.Fatalf("%s %dx%dx%d width=%d: element %d is %v, reference %v",
							c.name, s.m, s.k, s.n, width, i, c.got.Data[i], c.want.Data[i])
					}
				}
			}
		}
		// The mix kernels at every length around the four- and eight-wide
		// steps, out of place and in place, with ±0 and subnormals, and in
		// most rows one special in b or one byte that overflows once
		// dequantized, at a random position (any lane of a vector step).
		for n := 0; n <= 70; n++ {
			for _, alpha := range []float64{0, 1, 0.4, 0.123456789, 1e-310} {
				a, b := mixOperand(rng, n, 0), mixOperand(rng, n, 0)
				q := make([]uint8, n)
				for i := range q {
					q[i] = uint8(rng.Intn(256))
				}
				lo, scale := rng.NormFloat64(), rng.Float64()
				if n > 0 && rng.Intn(4) != 0 {
					b[rng.Intn(n)] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
					lo, scale = 1e308, 1e306 // a byte below 80 stays finite, 255 overflows
					for i := range q {
						q[i] %= 80
					}
					q[rng.Intn(n)] = 255
				}
				for _, c := range []struct {
					name string
					mix  func(dst, a []float64) bool
					ref  func(dst, a []float64) bool
				}{
					{"Mix", func(d, a []float64) bool { return Mix(d, a, b, alpha) },
						func(d, a []float64) bool { return refMix(d, a, b, alpha) }},
					{"MixU8", func(d, a []float64) bool { return MixU8(d, a, q, lo, scale, alpha) },
						func(d, a []float64) bool { return refMixU8(d, a, q, lo, scale, alpha) }},
				} {
					for _, inPlace := range []bool{false, true} {
						got, want := make([]float64, n), make([]float64, n)
						gotA, wantA := a, a
						if inPlace {
							copy(got, a)
							copy(want, a)
							gotA, wantA = got, want
						}
						gotOK, wantOK := c.mix(got, gotA), c.ref(want, wantA)
						if gotOK != wantOK {
							t.Fatalf("%s n=%d alpha=%v in place %v: finite %v, reference %v", c.name, n, alpha, inPlace, gotOK, wantOK)
						}
						if i, ok := sameBits(&Tensor{Data: got}, &Tensor{Data: want}); !ok {
							t.Fatalf("%s n=%d alpha=%v in place %v: element %d is %v, reference %v", c.name, n, alpha, inPlace, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// refMix is the commit's mixing loop as the server and fl.AsyncMix first
// wrote it, with the finiteness of b checked element by element: the
// definition of what Mix writes and reports, under both bodies.
func refMix(dst, a, b []float64, alpha float64) (finite bool) {
	finite = true
	for i := range dst {
		if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			finite = false
		}
		dst[i] = (1-alpha)*a[i] + alpha*b[i]
	}
	return finite
}

// refMixU8 is refMix over the dequantized vector lo + float64(q[i])·scale.
func refMixU8(dst, a []float64, q []uint8, lo, scale, alpha float64) (finite bool) {
	b := make([]float64, len(dst))
	for i := range b {
		b[i] = lo + float64(q[i])*scale
	}
	return refMix(dst, a, b, alpha)
}

// mixOperand is n normal values with zeros of either sign and subnormals
// mixed in and, when specials is not zero, ±Inf or NaN one time in
// specials.
func mixOperand(rng *rand.Rand, n, specials int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch v[i] = rng.NormFloat64(); {
		case specials > 0 && rng.Intn(specials) == 0:
			v[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		case rng.Intn(8) == 0:
			v[i] = []float64{0, math.Copysign(0, -1), 5e-324, v[i] * 1e-310}[rng.Intn(4)]
		}
	}
	return v
}

// TestZeroSkipKeepsInfOut states the zero-skip contract on its own: a zero
// in a opposite an infinity in b contributes nothing to MatMul and MatMulAT
// (0·Inf is skipped, not NaN), in a group of four as in a remainder.
func TestZeroSkipKeepsInfOut(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		for _, k := range []int{1, 4, 5, 8} {
			a, aT, b := New(1, k), New(k, 1), New(k, 2)
			b.Fill(1)
			for kk := 0; kk < k; kk++ {
				a.Data[kk], aT.Data[kk] = 1, 1
			}
			a.Data[k-1], aT.Data[k-1] = 0, 0
			b.Data[(k-1)*2] = math.Inf(1)
			for name, got := range map[string]*Tensor{"MatMul": MatMul(a, b), "MatMulATInto": MatMulATInto(New(aT.Cols(), b.Cols()), aT, b, 1)} {
				if got.Data[0] != float64(k-1) || got.Data[1] != float64(k-1) {
					t.Fatalf("%s k=%d: got %v, want [%d %d]", name, k, got.Data, k-1, k-1)
				}
			}
		}
	})
}

// TestAsmVEXOnly holds kernels_amd64.s to its encoding rule: every
// instruction that touches an X or Y register is VEX-encoded, and a function
// that touches a Y register runs VZEROUPPER right before it returns. A
// legacy-SSE instruction after a YMM one pays a state transition on each call
// (an SSE scalar tail made axpy4 at n = 10 take 185 ns, against 9 ns with a
// VEX one), and returning with the upper halves dirty hands that cost to the
// caller's SSE code.
func TestAsmVEXOnly(t *testing.T) {
	src, err := os.ReadFile("kernels_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	simd, ymmReg := regexp.MustCompile(`\b[XY]\d+\b`), regexp.MustCompile(`\bY\d+\b`)
	var fn, prev string
	var ymm bool // fn has touched a Y register
	for n, line := range strings.Split(string(src), "\n") {
		code, _, _ := strings.Cut(line, "//")
		fields := strings.Fields(code)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") || strings.HasPrefix(fields[0], "#") {
			continue
		}
		op := fields[0]
		switch {
		case op == "TEXT":
			fn, ymm = fields[1], false
		case op == "RET" && ymm && prev != "VZEROUPPER":
			t.Errorf("line %d: %s returns without VZEROUPPER after using a Y register", n+1, fn)
		case simd.MatchString(code) && !strings.HasPrefix(op, "V"):
			t.Errorf("line %d: %s is a legacy-SSE instruction in %s", n+1, op, fn)
		}
		ymm = ymm || ymmReg.MatchString(code)
		prev = op
	}
}

// FuzzAxpyBodies holds the assembly bodies of axpy and axpy4 to the Go ones
// on fuzzed lengths, offsets into the operands (so unaligned loads and every
// vector tail) and values, specials included: the output must agree bit for
// bit, NaN payloads aside (sameBits).
func FuzzAxpyBodies(f *testing.F) {
	f.Add(uint8(10), uint8(0), int64(1), 0.5, -2.0, 1e-310, math.Inf(1))
	f.Add(uint8(65), uint8(3), int64(2), math.Copysign(0, -1), math.NaN(), 3.0, -1.0)
	f.Add(uint8(7), uint8(1), int64(3), 1e308, 1e308, -1e308, 5e-324)
	f.Fuzz(func(t *testing.T, n, off uint8, seed int64, a0, a1, a2, a3 float64) {
		if !useAsm {
			t.Skip("no assembly body on this build or CPU")
		}
		rng := rand.New(rand.NewSource(seed))
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e308}
		vec := func() []float64 {
			v := make([]float64, int(off)%8+int(n))
			for i := range v {
				if v[i] = rng.NormFloat64(); rng.Intn(8) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				}
			}
			return v[int(off)%8:]
		}
		o, b0, b1, b2, b3 := vec(), vec(), vec(), vec(), vec()
		run := func(asm bool) (*Tensor, *Tensor) {
			defer func() { useAsm = true }()
			useAsm = asm
			one, four := append([]float64(nil), o...), append([]float64(nil), o...)
			axpy(one, a0, b0)
			axpy4(four, a0, a1, a2, a3, b0, b1, b2, b3)
			return &Tensor{Data: one}, &Tensor{Data: four}
		}
		asmOne, asmFour := run(true)
		goOne, goFour := run(false)
		if i, ok := sameBits(asmOne, goOne); !ok {
			t.Fatalf("axpy n=%d: element %d is %v under assembly, %v under Go", n, i, asmOne.Data[i], goOne.Data[i])
		}
		if i, ok := sameBits(asmFour, goFour); !ok {
			t.Fatalf("axpy4 n=%d: element %d is %v under assembly, %v under Go", n, i, asmFour.Data[i], goFour.Data[i])
		}
	})
}

// FuzzMixBodies holds the assembly bodies of Mix and MixU8 to the Go ones on
// fuzzed lengths, offsets into the operands (so unaligned loads and every
// vector tail), values (±0, subnormals, ±Inf and NaN), dequantization
// parameters and α: dst must agree bit for bit, NaN payloads aside
// (sameBits), and so must the finite flag, out of place and in place.
func FuzzMixBodies(f *testing.F) {
	f.Add(uint8(10), uint8(0), int64(1), 0.4, -1.0, 0.01)
	f.Add(uint8(65), uint8(3), int64(2), 1.0, 1e308, 1e307)
	f.Add(uint8(7), uint8(5), int64(3), 5e-324, math.Copysign(0, -1), 5e-324)
	f.Add(uint8(12), uint8(1), int64(4), math.NaN(), math.Inf(-1), 0.0)
	f.Fuzz(func(t *testing.T, n, off uint8, seed int64, alpha, lo, scale float64) {
		if !useAsm {
			t.Skip("no assembly body on this build or CPU")
		}
		rng := rand.New(rand.NewSource(seed))
		// off picks the offset and how rare specials are: none, or one in
		// 4·(off/8), so a single one can sit in any lane.
		o, specials := int(off)%8, 4*(int(off)/8)
		a := mixOperand(rng, o+int(n), specials)[o:]
		b := mixOperand(rng, o+int(n), specials)[o:]
		q := make([]uint8, o+int(n))
		for i := range q {
			q[i] = uint8(rng.Intn(256))
		}
		q = q[o:]
		type result struct {
			out, inPlace, outU8, inPlaceU8 []float64
			finite                         [4]bool
		}
		run := func(asm bool) (r result) {
			defer func() { useAsm = true }()
			useAsm = asm
			r.out, r.outU8 = make([]float64, len(a)), make([]float64, len(a))
			r.inPlace, r.inPlaceU8 = append([]float64(nil), a...), append([]float64(nil), a...)
			r.finite = [4]bool{
				Mix(r.out, a, b, alpha), Mix(r.inPlace, r.inPlace, b, alpha),
				MixU8(r.outU8, a, q, lo, scale, alpha), MixU8(r.inPlaceU8, r.inPlaceU8, q, lo, scale, alpha),
			}
			return r
		}
		asm, gob := run(true), run(false)
		if asm.finite != gob.finite {
			t.Fatalf("n=%d: finite flags %v under assembly, %v under Go", n, asm.finite, gob.finite)
		}
		for _, c := range []struct {
			name     string
			asm, gob []float64
		}{
			{"Mix", asm.out, gob.out}, {"Mix in place", asm.inPlace, gob.inPlace},
			{"MixU8", asm.outU8, gob.outU8}, {"MixU8 in place", asm.inPlaceU8, gob.inPlaceU8},
		} {
			if i, ok := sameBits(&Tensor{Data: c.asm}, &Tensor{Data: c.gob}); !ok {
				t.Fatalf("%s n=%d: element %d is %v under assembly, %v under Go", c.name, n, i, c.asm[i], c.gob[i])
			}
		}
	})
}

// refQuantize is the quantizer as the uplink codec first shipped it
// (flnet.QuantizeInto): math.Min and math.Max folds, then math.Round of each
// (v − lo) / scale. It is the definition of the bytes QuantizeU8 must
// produce, under both bodies, for every finite input.
func refQuantize(dst []uint8, w []float64) (lo, scale float64) {
	dst = dst[:len(w)]
	if len(w) == 0 {
		return 0, 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range w {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi > lo {
		scale = (hi - lo) / 255
		for i, v := range w {
			dst[i] = uint8(math.Round((v - lo) / scale))
		}
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	return lo, scale
}

// TestQuantizeMatchesReferenceAtTheEdges pins, under each body, the finite
// inputs whose bytes come from the corners of the arithmetic: a range of a
// few subnormal ulps whose scale underflows to zero (x is +Inf or NaN) or
// rounds down to one ulp (x passes 255 and the byte wraps), a range that
// overflows to an infinite scale, zero extremes of either sign, ties at x.5
// and the largest double below one half.
func TestQuantizeMatchesReferenceAtTheEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ulp := math.SmallestNonzeroFloat64
	for _, w := range [][]float64{
		{0, ulp, 2 * ulp, 0, ulp},
		{0, 381 * ulp, 200 * ulp, 380 * ulp, 7 * ulp},
		{-1e308, 1e308, 0, 5e307, -3},
		{1, negZero, 0, 2, 3},
		{0, negZero, 0, negZero},
		{-1, negZero, 0, -2},
		{0, 255, 0.5, 1.5, 2.5, 253.5, 254.5},
		{0, 255, 0.49999999999999994, 127.49999999999999, 254.49999999999997},
	} {
		want := make([]uint8, len(w))
		wantLo, wantScale := refQuantize(want, w)
		forEachBody(t, func(t *testing.T) {
			got := make([]uint8, len(w))
			lo, scale := QuantizeU8(got, w)
			if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(scale) != math.Float64bits(wantScale) {
				t.Fatalf("%v: (Min, Scale) = (%v, %v), reference (%v, %v)", w, lo, scale, wantLo, wantScale)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: bytes %v, reference %v", w, got, want)
			}
		})
	}
}

// quantizeVector builds one of FuzzQuantizeBodies' vector shapes: n values
// around a with spread b, a constant, subnormals, ties at x.5, a zero
// minimum or maximum of either sign, or values with specials mixed in.
func quantizeVector(rng *rand.Rand, shape uint8, n int, a, b float64) []float64 {
	negZero := math.Copysign(0, -1)
	zero := func() float64 {
		if rng.Intn(2) == 0 {
			return negZero
		}
		return 0
	}
	w := make([]float64, n)
	for i := range w {
		switch shape % 7 {
		case 0:
			w[i] = a + b*rng.NormFloat64()
		case 1:
			w[i] = a
		case 2: // subnormals, a few ulps apart: the scale can underflow
			w[i] = float64(rng.Intn(600)-300) * 5e-324
		case 3: // lo = 0, hi = 255, scale = 1: every x.5 is a tie
			w[i] = float64(rng.Intn(255)) + 0.5
		case 4: // the minimum is a zero of either sign
			w[i] = math.Abs(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				w[i] = zero()
			}
		case 5: // the maximum is a zero of either sign
			w[i] = -math.Abs(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				w[i] = zero()
			}
		case 6:
			specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), a, b}
			if w[i] = rng.NormFloat64(); rng.Intn(4) == 0 {
				w[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	if shape%7 == 3 && n >= 2 {
		w[rng.Intn(n)], w[rng.Intn(n)] = 0, 255
	}
	if n > 0 && shape%7 == 0 && rng.Intn(2) == 0 {
		w[rng.Intn(n)] = b // an extreme the fuzzer picks: ±0, huge, tiny
	}
	return w
}

// FuzzQuantizeBodies holds QuantizeU8 to refQuantize under each body: for
// every finite input Min and Scale must match bit for bit and the bytes byte
// for byte; an input with ±Inf or NaN gives NaN parameters and zero bytes
// under both. Each input runs at every length around the four- and
// eight-wide steps, at an offset that unaligns the loads.
func FuzzQuantizeBodies(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), 0.0, 1.0)
	f.Add(uint8(1), uint8(1), int64(2), math.Copysign(0, -1), 0.0)
	f.Add(uint8(2), uint8(2), int64(3), 0.0, 0.0)
	f.Add(uint8(3), uint8(3), int64(4), 0.0, 0.0)
	f.Add(uint8(4), uint8(0), int64(5), 0.0, 0.0)
	f.Add(uint8(5), uint8(1), int64(6), 0.0, 0.0)
	f.Add(uint8(6), uint8(2), int64(7), 1e308, -1e308)
	f.Add(uint8(0), uint8(3), int64(8), 1e308, -1e308)
	f.Add(uint8(0), uint8(1), int64(9), 3.0, 1e-310)
	f.Fuzz(func(t *testing.T, shape, off uint8, seed int64, a, b float64) {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 31, 33} {
			w := quantizeVector(rng, shape, int(off)%4+n, a, b)[int(off)%4:]
			finite := true
			for _, v := range w {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
			want := make([]uint8, n)
			wantLo, wantScale := math.NaN(), math.NaN()
			if finite {
				wantLo, wantScale = refQuantize(want, w)
			}
			forEachBody(t, func(t *testing.T) {
				got := make([]uint8, n)
				for i := range got {
					got[i] = 0xAA // stale bytes must be overwritten
				}
				lo, scale := QuantizeU8(got, w)
				if _, ok := sameBits(&Tensor{Data: []float64{lo, scale}}, &Tensor{Data: []float64{wantLo, wantScale}}); !ok {
					t.Fatalf("n=%d %v: (Min, Scale) = (%v, %v), reference (%v, %v)", n, w, lo, scale, wantLo, wantScale)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d %v: bytes % x, reference % x", n, w, got, want)
				}
			})
		}
	})
}
