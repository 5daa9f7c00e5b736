package tensor

import (
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
		for _, procs := range []int{1, 4} {
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

				withParallelism(procs, func() {
					for _, c := range []struct {
						name      string
						got, want *Tensor
					}{
						{"MatMulInto", MatMulInto(New(s.m, s.n), a, b), refMatMul(a, b)},
						{"MatMulATInto", MatMulATInto(New(s.m, s.n), aT, b), refMatMulAT(aT, b)},
						{"MatMulBTInto", MatMulBTInto(New(s.m, s.n), a, bT), refMatMulBT(a, bT)},
					} {
						if i, ok := sameBits(c.got, c.want); !ok {
							t.Fatalf("%s %dx%dx%d procs=%d: element %d is %v, reference %v",
								c.name, s.m, s.k, s.n, procs, i, c.got.Data[i], c.want.Data[i])
						}
					}
				})
			}
		}
	})
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
			for name, got := range map[string]*Tensor{"MatMul": MatMul(a, b), "MatMulAT": MatMulAT(aT, b)} {
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
