package field

import (
	"fmt"
	"math/bits"
)

// Lazy-reduction kernels.
//
// Element.Mul reduces every 128-bit product immediately. The hot loops of
// Lagrange encoding and batch decoding are inner products and
// accumulate-scaled-vector updates, where reducing per term wastes most of
// the work: products can instead be summed in a raw 128-bit accumulator
// and reduced once per chunk. The chunk bound is arithmetic, not tuning:
// each product is at most (p-1)² < 2^122, so a sum of lazyTerms = 64
// products plus one carried reduced value (< p < 2^61) stays strictly
// below 64·2^122 + 2^61 < 2^128 and never overflows the (hi, lo) pair.
const lazyTerms = 64

// reduce128 returns hi·2^64 + lo mod p. Since 2^64 = 8·2^61 ≡ 8 (mod p),
// the value folds as 8·hi + lo; 8·hi is a 67-bit quantity that folds the
// same way once more: with 8·hi = h2·2^64 + l2 (h2 < 8), the total is
// congruent to 8·h2 + l2 + lo, three canonical additions.
func reduce128(hi, lo uint64) Element {
	h2, l2 := bits.Mul64(hi, 8)
	return New(lo).Add(New(l2)).Add(Element(h2 * 8))
}

// dotBlock is the span DotAcc consumes per unrolled iteration: four
// independent (hi, lo) lanes, each fed exactly lazyTerms products, so
// every lane starts from zero and meets the §9 chunk bound
// (lazyTerms·2^122 < 2^128) with room to spare — the carried reduced
// value of the single-lane loop never even appears.
const dotBlock = 4 * lazyTerms

// DotAcc returns the inner product of equal-length vectors a and b,
// bit-identical to Dot but with one modular reduction per lazyTerms
// products instead of one per term. The main loop runs four independent
// (hi, lo) accumulator pairs so the CPU can overlap the bits.Mul64
// dependency chains; the sub-block tail falls back to the single-lane
// lazy loop. It panics on length mismatch.
func DotAcc(a, b []Element) Element {
	if len(a) != len(b) {
		panic(fmt.Sprintf("field: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s Element
	i := 0
	for ; i+dotBlock <= len(a); i += dotBlock {
		var h0, l0, h1, l1, h2, l2, h3, l3 uint64
		for j := i; j < i+dotBlock; j += 4 {
			ph, pl := bits.Mul64(uint64(a[j]), uint64(b[j]))
			var c uint64
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(uint64(a[j+1]), uint64(b[j+1]))
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			ph, pl = bits.Mul64(uint64(a[j+2]), uint64(b[j+2]))
			l2, c = bits.Add64(l2, pl, 0)
			h2 += ph + c
			ph, pl = bits.Mul64(uint64(a[j+3]), uint64(b[j+3]))
			l3, c = bits.Add64(l3, pl, 0)
			h3 += ph + c
		}
		s = s.Add(reduce128(h0, l0)).Add(reduce128(h1, l1)).
			Add(reduce128(h2, l2)).Add(reduce128(h3, l3))
	}
	var hi, lo uint64
	terms := 0
	for ; i < len(a); i++ {
		ph, pl := bits.Mul64(uint64(a[i]), uint64(b[i]))
		var carry uint64
		lo, carry = bits.Add64(lo, pl, 0)
		hi += ph + carry
		if terms++; terms == lazyTerms {
			s = s.Add(reduce128(hi, lo))
			hi, lo, terms = 0, 0, 0
		}
	}
	return s.Add(reduce128(hi, lo))
}

// DotAcc4 returns the inner products of a0, a1, a2 and a3 with b, each
// bit-identical to DotAcc(ai, b). It is the kernel under evaluating many
// polynomials at one point from the point's powers: the four lanes share
// every load of b and run independent (hi, lo) accumulators, each starting
// from zero every lazyTerms products and reduced once per chunk (the §9
// bound). It panics unless all five lengths are equal.
func DotAcc4(a0, a1, a2, a3, b []Element) (d0, d1, d2, d3 Element) {
	n := len(b)
	if len(a0) != n || len(a1) != n || len(a2) != n || len(a3) != n {
		panic(fmt.Sprintf("field: dot4 lengths %d, %d, %d, %d against %d", len(a0), len(a1), len(a2), len(a3), n))
	}
	for i := 0; i < n; i += lazyTerms {
		end := min(i+lazyTerms, n)
		x0, x1, x2, x3 := a0[i:end], a1[i:end], a2[i:end], a3[i:end]
		var h0, l0, h1, l1, h2, l2, h3, l3 uint64
		for j, y := range b[i:end] {
			bj := uint64(y)
			var c uint64
			ph, pl := bits.Mul64(uint64(x0[j]), bj)
			l0, c = bits.Add64(l0, pl, 0)
			h0 += ph + c
			ph, pl = bits.Mul64(uint64(x1[j]), bj)
			l1, c = bits.Add64(l1, pl, 0)
			h1 += ph + c
			ph, pl = bits.Mul64(uint64(x2[j]), bj)
			l2, c = bits.Add64(l2, pl, 0)
			h2 += ph + c
			ph, pl = bits.Mul64(uint64(x3[j]), bj)
			l3, c = bits.Add64(l3, pl, 0)
			h3 += ph + c
		}
		d0 = d0.Add(reduce128(h0, l0))
		d1 = d1.Add(reduce128(h1, l1))
		d2 = d2.Add(reduce128(h2, l2))
		d3 = d3.Add(reduce128(h3, l3))
	}
	return d0, d1, d2, d3
}

// MulAddVec computes dst[i] = dst[i] + c·xs[i] mod p for every lane, the
// fused kernel under row-elimination updates (dst -= factor·row via the
// negated factor) where each destination is read once and written once.
// Per lane the sum fits one (hi, lo) pair — the product is < 2^122 and
// the canonical dst value < 2^61 — so a single reduce128 per element
// replaces the separate Mul-then-Add reductions of the scalar form. The
// loop is unrolled four wide to overlap the multiply chains. It panics
// on length mismatch.
func MulAddVec(dst []Element, c Element, xs []Element) {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("field: muladd length mismatch %d != %d", len(dst), len(xs)))
	}
	cu := uint64(c)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		h0, l0 := bits.Mul64(cu, uint64(xs[i]))
		h1, l1 := bits.Mul64(cu, uint64(xs[i+1]))
		h2, l2 := bits.Mul64(cu, uint64(xs[i+2]))
		h3, l3 := bits.Mul64(cu, uint64(xs[i+3]))
		var c0, c1, c2, c3 uint64
		l0, c0 = bits.Add64(l0, uint64(dst[i]), 0)
		l1, c1 = bits.Add64(l1, uint64(dst[i+1]), 0)
		l2, c2 = bits.Add64(l2, uint64(dst[i+2]), 0)
		l3, c3 = bits.Add64(l3, uint64(dst[i+3]), 0)
		dst[i] = reduce128(h0+c0, l0)
		dst[i+1] = reduce128(h1+c1, l1)
		dst[i+2] = reduce128(h2+c2, l2)
		dst[i+3] = reduce128(h3+c3, l3)
	}
	for ; i < len(dst); i++ {
		hi, lo := bits.Mul64(cu, uint64(xs[i]))
		var carry uint64
		lo, carry = bits.Add64(lo, uint64(dst[i]), 0)
		dst[i] = reduce128(hi+carry, lo)
	}
}

// Accumulator is a fixed-width vector of lazy 128-bit sums of field
// products, the kernel under accumulate-many-scaled-vectors loops:
//
//	acc.VecMulAddScalar(c_1, x_1); …; acc.VecMulAddScalar(c_n, x_n)
//	acc.Reduce(dst)   // dst[i] = Σ_j c_j·x_j[i]
//
// Each lane spills (reduces into itself) every lazyTerms scaled adds, so
// the amortised cost per term is one 128-bit add instead of a full
// Mersenne reduction. An Accumulator is not safe for concurrent use; give
// each worker its own.
type Accumulator struct {
	hi, lo  []uint64
	pending int // scaled-vector adds since the last spill
}

// NewAccumulator returns a zeroed accumulator of the given width.
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{hi: make([]uint64, n), lo: make([]uint64, n)}
}

// Len returns the accumulator width.
func (a *Accumulator) Len() int { return len(a.lo) }

// VecMulAddScalar accumulates c·xs into the lanes: a[i] += c·xs[i].
// The lanes are independent by construction, so the loop is unrolled
// four wide to overlap the bits.Mul64 chains; the remainder runs the
// scalar form. It panics when len(xs) differs from the accumulator
// width.
func (a *Accumulator) VecMulAddScalar(c Element, xs []Element) {
	if len(xs) != len(a.lo) {
		panic(fmt.Sprintf("field: accumulator width %d, vector length %d", len(a.lo), len(xs)))
	}
	if a.pending == lazyTerms-1 {
		a.spill()
	}
	cu := uint64(c)
	hi, lo := a.hi, a.lo
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		h0, l0 := bits.Mul64(cu, uint64(xs[i]))
		h1, l1 := bits.Mul64(cu, uint64(xs[i+1]))
		h2, l2 := bits.Mul64(cu, uint64(xs[i+2]))
		h3, l3 := bits.Mul64(cu, uint64(xs[i+3]))
		var c0, c1, c2, c3 uint64
		lo[i], c0 = bits.Add64(lo[i], l0, 0)
		hi[i] += h0 + c0
		lo[i+1], c1 = bits.Add64(lo[i+1], l1, 0)
		hi[i+1] += h1 + c1
		lo[i+2], c2 = bits.Add64(lo[i+2], l2, 0)
		hi[i+2] += h2 + c2
		lo[i+3], c3 = bits.Add64(lo[i+3], l3, 0)
		hi[i+3] += h3 + c3
	}
	for ; i < len(xs); i++ {
		ph, pl := bits.Mul64(cu, uint64(xs[i]))
		var carry uint64
		lo[i], carry = bits.Add64(lo[i], pl, 0)
		hi[i] += ph + carry
	}
	a.pending++
}

// spill folds every lane to its canonical value so the lazy headroom
// resets; the folded value (< p) counts as less than one product toward
// the next chunk's bound.
func (a *Accumulator) spill() {
	for i := range a.lo {
		a.lo[i] = uint64(reduce128(a.hi[i], a.lo[i]))
		a.hi[i] = 0
	}
	a.pending = 0
}

// Reduce writes the canonical value of every lane into dst and resets the
// accumulator to zero, ready for the next accumulation. It panics when
// len(dst) differs from the accumulator width.
func (a *Accumulator) Reduce(dst []Element) {
	if len(dst) != len(a.lo) {
		panic(fmt.Sprintf("field: accumulator width %d, destination length %d", len(a.lo), len(dst)))
	}
	for i := range a.lo {
		dst[i] = reduce128(a.hi[i], a.lo[i])
		a.hi[i], a.lo[i] = 0, 0
	}
	a.pending = 0
}
