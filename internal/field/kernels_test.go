package field

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDot is the per-term-reduced reference the lazy kernels must match.
func naiveDot(a, b []Element) Element {
	var s Element
	for i := range a {
		s = s.Add(a[i].Mul(b[i]))
	}
	return s
}

func TestReduce128(t *testing.T) {
	cases := []struct{ hi, lo uint64 }{
		{0, 0},
		{0, Modulus},
		{0, ^uint64(0)},
		{1, 0},
		{^uint64(0), ^uint64(0)},
		{Modulus, Modulus},
		{1 << 61, 1 << 61},
	}
	for _, c := range cases {
		// Reference: (hi·2^64 + lo) mod p via 2^64 ≡ 8 computed with
		// Element ops only (8·(hi mod p) + lo mod p).
		want := New(c.hi).Mul(New(8)).Add(New(c.lo))
		if got := reduce128(c.hi, c.lo); got != want {
			t.Errorf("reduce128(%d, %d) = %v, want %v", c.hi, c.lo, got, want)
		}
	}
}

func TestDotAccMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sweep lengths across the lazy-chunk boundary (63/64/65) and both
	// sides of the four-lane block boundary (4·lazyTerms = 256).
	for _, n := range []int{0, 1, 2, 31, 63, 64, 65, 127, 128, 129,
		dotBlock - 1, dotBlock, dotBlock + 1, 2*dotBlock - 1, 2 * dotBlock, 2*dotBlock + 65, 1000} {
		a := make([]Element, n)
		b := make([]Element, n)
		for i := range a {
			a[i] = Rand(rng)
			b[i] = Rand(rng)
		}
		if got, want := DotAcc(a, b), naiveDot(a, b); got != want {
			t.Fatalf("n=%d: DotAcc = %v, Dot = %v", n, got, want)
		}
	}
}

func TestDotAccWorstCaseMagnitudes(t *testing.T) {
	// Every product at its maximum (p-1)² stresses the 128-bit headroom
	// argument: 64 such products must not overflow the accumulator —
	// per lane of the unrolled main loop just as in the scalar tail.
	for _, n := range []int{64, 65, 128, 255, 256, 257, 511, 512, 513, 1024} {
		a := make([]Element, n)
		b := make([]Element, n)
		for i := range a {
			a[i] = Element(Modulus - 1)
			b[i] = Element(Modulus - 1)
		}
		if got, want := DotAcc(a, b), naiveDot(a, b); got != want {
			t.Fatalf("n=%d worst case: DotAcc = %v, want %v", n, got, want)
		}
	}
}

func TestDotAccQuick(t *testing.T) {
	f := func(raw []uint64) bool {
		a := make([]Element, len(raw))
		b := make([]Element, len(raw))
		for i, v := range raw {
			a[i] = New(v)
			b[i] = New(v ^ 0x9e3779b97f4a7c15)
		}
		return DotAcc(a, b) == naiveDot(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDotAccLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	DotAcc(make([]Element, 2), make([]Element, 3))
}

// TestDotAcc4MatchesDot: every lane of the four-way kernel is the
// per-term-reduced dot product, across the lazy-chunk boundary and at the
// worst-case magnitudes, and lanes do not bleed into each other.
func TestDotAcc4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 16, 63, 64, 65, 128, 129, 300} {
		for _, worst := range []bool{false, true} {
			var a [4][]Element
			b := make([]Element, n)
			for l := range a {
				a[l] = make([]Element, n)
			}
			for i := range b {
				b[i] = Rand(rng)
				if worst {
					b[i] = Element(Modulus - 1)
				}
				for l := range a {
					a[l][i] = Rand(rng)
					if worst {
						a[l][i] = Element(Modulus - 1)
					}
				}
			}
			var got [4]Element
			got[0], got[1], got[2], got[3] = DotAcc4(a[0], a[1], a[2], a[3], b)
			for l := range a {
				if want := naiveDot(a[l], b); got[l] != want {
					t.Fatalf("n=%d worst=%v lane %d: DotAcc4 = %v, want %v", n, worst, l, got[l], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	e := make([]Element, 2)
	DotAcc4(e, e, make([]Element, 1), e, e)
}

func TestAccumulatorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// terms sweeps across the spill boundary: 63 scaled adds trigger the
	// in-place fold, so 62..130 covers before/at/after plus a second fold.
	for _, terms := range []int{1, 2, 62, 63, 64, 65, 130, 200} {
		const width = 5
		acc := NewAccumulator(width)
		want := make([]Element, width)
		for t := 0; t < terms; t++ {
			c := Rand(rng)
			xs := make([]Element, width)
			for i := range xs {
				xs[i] = Rand(rng)
			}
			acc.VecMulAddScalar(c, xs)
			for i := range want {
				want[i] = want[i].Add(c.Mul(xs[i]))
			}
		}
		got := make([]Element, width)
		acc.Reduce(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("terms=%d lane %d: got %v, want %v", terms, i, got[i], want[i])
			}
		}
	}
}

func TestAccumulatorWorstCaseMagnitudes(t *testing.T) {
	const width = 3
	acc := NewAccumulator(width)
	want := make([]Element, width)
	c := Element(Modulus - 1)
	xs := []Element{Element(Modulus - 1), Element(Modulus - 1), Element(Modulus - 1)}
	for t := 0; t < 200; t++ {
		acc.VecMulAddScalar(c, xs)
		for i := range want {
			want[i] = want[i].Add(c.Mul(xs[i]))
		}
	}
	got := make([]Element, width)
	acc.Reduce(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAccumulatorUnrollWidths(t *testing.T) {
	// The four-wide elementwise unroll must agree with the scalar form at
	// widths on both sides of the unroll stride.
	rng := rand.New(rand.NewSource(4))
	for _, width := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 100} {
		acc := NewAccumulator(width)
		want := make([]Element, width)
		for t := 0; t < 70; t++ { // crosses one spill
			c := Rand(rng)
			xs := make([]Element, width)
			for i := range xs {
				xs[i] = Rand(rng)
			}
			acc.VecMulAddScalar(c, xs)
			for i := range want {
				want[i] = want[i].Add(c.Mul(xs[i]))
			}
		}
		got := make([]Element, width)
		acc.Reduce(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width=%d lane %d: got %v, want %v", width, i, got[i], want[i])
			}
		}
	}
}

func TestMulAddVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 100, 257} {
		dst := make([]Element, n)
		want := make([]Element, n)
		xs := make([]Element, n)
		for i := range dst {
			dst[i] = Rand(rng)
			want[i] = dst[i]
			xs[i] = Rand(rng)
		}
		c := Rand(rng)
		MulAddVec(dst, c, xs)
		for i := range want {
			want[i] = want[i].Add(c.Mul(xs[i]))
			if dst[i] != want[i] {
				t.Fatalf("n=%d lane %d: got %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestMulAddVecWorstCaseMagnitudes(t *testing.T) {
	// Maximum product plus maximum canonical destination per lane:
	// (p-1)² + (p-1) < 2^122 + 2^61 must stay inside the (hi, lo) pair.
	const n = 9
	worst := Element(Modulus - 1)
	dst := make([]Element, n)
	want := make([]Element, n)
	xs := make([]Element, n)
	for i := range dst {
		dst[i], want[i], xs[i] = worst, worst, worst
	}
	for rep := 0; rep < 100; rep++ {
		MulAddVec(dst, worst, xs)
		for i := range want {
			want[i] = want[i].Add(worst.Mul(worst))
		}
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("lane %d: got %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMulAddVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	MulAddVec(make([]Element, 2), One, make([]Element, 3))
}

func TestAccumulatorReduceResets(t *testing.T) {
	acc := NewAccumulator(2)
	acc.VecMulAddScalar(New(3), []Element{New(1), New(2)})
	out := make([]Element, 2)
	acc.Reduce(out)
	if out[0] != New(3) || out[1] != New(6) {
		t.Fatalf("first reduce = %v", out)
	}
	// A drained accumulator starts the next accumulation from zero.
	acc.VecMulAddScalar(New(5), []Element{New(1), New(1)})
	acc.Reduce(out)
	if out[0] != New(5) || out[1] != New(5) {
		t.Fatalf("second reduce = %v (accumulator not reset)", out)
	}
	if acc.Len() != 2 {
		t.Fatalf("Len = %d", acc.Len())
	}
}

func TestAccumulatorWidthMismatchPanics(t *testing.T) {
	acc := NewAccumulator(4)
	for name, fn := range map[string]func(){
		"VecMulAddScalar": func() { acc.VecMulAddScalar(One, make([]Element, 3)) },
		"Reduce":          func() { acc.Reduce(make([]Element, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on width mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkDotAcc compares the lazy-reduction inner product against the
// per-term-reduced Dot at the vector lengths the batch decoder uses
// (V ≈ 100 received symbols, and a long kernel-dominated case).
func BenchmarkDotAcc(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 1024} {
		a := make([]Element, n)
		c := make([]Element, n)
		for i := range a {
			a[i] = Rand(rng)
			c[i] = Rand(rng)
		}
		b.Run(fmt.Sprintf("n=%d/kernel=dotacc", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkElement = DotAcc(a, c)
			}
		})
		b.Run(fmt.Sprintf("n=%d/kernel=dot", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkElement = Dot(a, c)
			}
		})
	}
}

var sinkElement Element
