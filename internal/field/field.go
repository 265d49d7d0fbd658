// Package field implements arithmetic over the prime field GF(p) with
// p = 2^61 - 1 (a Mersenne prime).
//
// The field is the exact-arithmetic substrate for Lagrange coded computing
// (LCC): Lagrange encoding, polynomial evaluation, and Reed–Solomon
// (Berlekamp–Welch) decoding all run over this field so that error
// correction is exact. The modulus is large enough that fixed-point
// quantised neural-network estimations (package fixedpoint) fit with
// comfortable headroom, yet small enough that a product of two elements
// fits in 128 bits and reduces with two shifts and an add.
//
// All operations are constant-allocation and safe for concurrent use;
// Element is an immutable value type.
package field

import (
	"fmt"
	"math/bits"
)

// Modulus is the field characteristic p = 2^61 - 1.
const Modulus uint64 = (1 << 61) - 1

// mask61 extracts the low 61 bits of a word.
const mask61 uint64 = (1 << 61) - 1

// Element is a value in GF(p), always kept in canonical form [0, p).
type Element uint64

// New returns the canonical element congruent to v mod p.
func New(v uint64) Element {
	v = (v >> 61) + (v & mask61)
	if v >= Modulus {
		v -= Modulus
	}
	return Element(v)
}

// NewInt64 returns the canonical element congruent to v mod p,
// mapping negative integers to their additive inverse representative.
func NewInt64(v int64) Element {
	if v >= 0 {
		return New(uint64(v))
	}
	return New(uint64(-v)).Neg()
}

// Zero and One are the additive and multiplicative identities.
const (
	Zero Element = 0
	One  Element = 1
)

// Uint64 returns the canonical representative in [0, p).
func (e Element) Uint64() uint64 { return uint64(e) }

// Add returns e + o mod p.
func (e Element) Add(o Element) Element {
	s := uint64(e) + uint64(o) // < 2^62, no overflow
	if s >= Modulus {
		s -= Modulus
	}
	return Element(s)
}

// Sub returns e - o mod p.
func (e Element) Sub(o Element) Element {
	d := uint64(e) - uint64(o)
	if d > uint64(e) { // borrow occurred
		d += Modulus
	}
	return Element(d)
}

// Neg returns -e mod p.
func (e Element) Neg() Element {
	if e == 0 {
		return 0
	}
	return Element(Modulus - uint64(e))
}

// Mul returns e * o mod p using 128-bit multiplication and Mersenne
// reduction: with x = hi·2^64 + lo and 2^61 ≡ 1 (mod p), the product
// splits as x = A·2^61 + B with A = x>>61 and B = x&mask, so x ≡ A + B.
func (e Element) Mul(o Element) Element {
	hi, lo := bits.Mul64(uint64(e), uint64(o))
	a := hi<<3 | lo>>61 // x >> 61; fits: x < 2^122 so a < 2^61
	b := lo & mask61
	s := a + b // < 2^62
	s = (s >> 61) + (s & mask61)
	if s >= Modulus {
		s -= Modulus
	}
	return Element(s)
}

// Square returns e² mod p.
func (e Element) Square() Element { return e.Mul(e) }

// Exp returns e^k mod p by binary exponentiation. Exp(0, 0) = 1.
func (e Element) Exp(k uint64) Element {
	result := One
	base := e
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Square()
		k >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse e^(p-2) mod p.
// Inv of zero panics: it indicates a programming error upstream
// (division by zero in a decoder is always a bug, not an input condition).
func (e Element) Inv() Element {
	if e == 0 {
		panic("field: inverse of zero")
	}
	return e.Exp(Modulus - 2)
}

// Div returns e / o mod p. Division by zero panics, as Inv does.
func (e Element) Div(o Element) Element { return e.Mul(o.Inv()) }

// String implements fmt.Stringer with the canonical representative.
func (e Element) String() string { return fmt.Sprintf("%d", uint64(e)) }

// BatchInv inverts every element of xs in place using Montgomery's trick
// (one inversion plus 3(n-1) multiplications). It panics if any element is
// zero, matching Inv.
func BatchInv(xs []Element) {
	n := len(xs)
	if n == 0 {
		return
	}
	prefix := make([]Element, n)
	acc := One
	for i, x := range xs {
		if x == 0 {
			panic("field: inverse of zero in batch")
		}
		prefix[i] = acc
		acc = acc.Mul(x)
	}
	inv := acc.Inv()
	for i := n - 1; i >= 0; i-- {
		xi := xs[i]
		xs[i] = inv.Mul(prefix[i])
		inv = inv.Mul(xi)
	}
}

// Sum returns the sum of xs, Zero for an empty slice.
func Sum(xs []Element) Element {
	var s Element
	for _, x := range xs {
		s = s.Add(x)
	}
	return s
}

// Dot returns the inner product of equal-length vectors a and b.
// It panics on length mismatch.
func Dot(a, b []Element) Element {
	if len(a) != len(b) {
		panic(fmt.Sprintf("field: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s Element
	for i := range a {
		s = s.Add(a[i].Mul(b[i]))
	}
	return s
}

// Distinct reports whether all elements of xs are pairwise distinct.
// Lagrange interpolation nodes and LCC evaluation points must be distinct;
// callers validate inputs with this before encoding.
func Distinct(xs []Element) bool {
	seen := make(map[Element]struct{}, len(xs))
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			return false
		}
		seen[x] = struct{}{}
	}
	return true
}
