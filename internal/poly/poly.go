// Package poly provides dense univariate polynomials over GF(p)
// (see package field) and over float64.
//
// Field polynomials are the working objects of Lagrange coded computing:
// the encoder builds the Lagrange interpolation polynomial H(z) of the data
// batches (paper eq. 3), vehicles evaluate the composed polynomial C(H(z)),
// and the Berlekamp–Welch decoder reconstructs it from noisy evaluations.
// Real polynomials carry the activation-function approximations of package
// approx into the neural network.
package poly

import (
	"fmt"
	"strings"

	"repro/internal/field"
)

// Poly is a dense polynomial over GF(p). The coefficient of z^i is
// stored at index i. The canonical form has no trailing zero
// coefficients; the zero polynomial is the empty slice.
type Poly []field.Element

// New returns the canonical polynomial with the given coefficients
// (constant term first). The input slice is copied.
func New(coeffs ...field.Element) Poly {
	p := make(Poly, len(coeffs))
	copy(p, coeffs)
	return p.normalize()
}

// normalize strips trailing zeros in place and returns the result.
func (p Poly) normalize() Poly {
	n := len(p)
	for n > 0 && p[n-1] == field.Zero {
		n--
	}
	return p[:n]
}

// Degree returns the degree of p, with the convention that the zero
// polynomial has degree -1.
func (p Poly) Degree() int { return len(p) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p) == 0 }

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// Eval evaluates p at x by Horner's rule.
func (p Poly) Eval(x field.Element) field.Element {
	var acc field.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(p[i])
	}
	return acc
}

// EvalMany evaluates p at every point of xs.
func (p Poly) EvalMany(xs []field.Element) []field.Element {
	out := make([]field.Element, len(xs))
	for i, x := range xs {
		out[i] = p.Eval(x)
	}
	return out
}

// Mul returns p·q by schoolbook convolution. Degrees in LCC are small
// (tens), so the quadratic algorithm is the right tool.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return nil
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, pi := range p {
		if pi == field.Zero {
			continue
		}
		for j, qj := range q {
			out[i+j] = out[i+j].Add(pi.Mul(qj))
		}
	}
	return out.normalize()
}

// MulLinear returns p·(z - a), the common building block of interpolation.
func (p Poly) MulLinear(a field.Element) Poly {
	return p.Mul(New(a.Neg(), field.One))
}

// QuoRem returns the quotient and remainder of p ÷ q.
// It panics if q is zero.
func (p Poly) QuoRem(q Poly) (quo, rem Poly) {
	if q.IsZero() {
		panic("poly: division by zero polynomial")
	}
	rem = p.Clone()
	if p.Degree() < q.Degree() {
		return nil, rem
	}
	quo = make(Poly, p.Degree()-q.Degree()+1)
	lcInv := q[len(q)-1].Inv()
	for rem.Degree() >= q.Degree() {
		shift := rem.Degree() - q.Degree()
		c := rem[len(rem)-1].Mul(lcInv)
		quo[shift] = c
		// rem -= c * z^shift * q
		for i, qi := range q {
			rem[shift+i] = rem[shift+i].Sub(c.Mul(qi))
		}
		rem = rem.normalize()
	}
	return quo.normalize(), rem
}

// Equal reports whether p and q are identical polynomials.
func (p Poly) Equal(q Poly) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders p as a human-readable sum of monomials.
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == field.Zero {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		switch i {
		case 0:
			fmt.Fprintf(&b, "%v", p[i])
		case 1:
			fmt.Fprintf(&b, "%v·z", p[i])
		default:
			fmt.Fprintf(&b, "%v·z^%d", p[i], i)
		}
	}
	return b.String()
}

// InterpolateInto returns the unique polynomial of degree < len(xs)
// passing through the points (xs[i], ys[i]), built for scratch-reusing
// hot paths: the result in dst's backing array (capacity must be
// ≥ len(xs)) and the divided-difference table in coef (length exactly
// len(xs)), so a steady-state caller allocates nothing. The returned
// polynomial aliases dst — it must not be retained past the next reuse
// of the scratch. The nodes MUST be pairwise distinct, a precondition
// that is the caller's (checked once at decoder construction, not per
// call). It panics on length mismatch.
func InterpolateInto(dst Poly, coef, xs, ys []field.Element) Poly {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("poly: interpolate length mismatch %d != %d", len(xs), len(ys)))
	}
	if len(coef) != len(xs) {
		panic(fmt.Sprintf("poly: interpolate scratch length %d for %d nodes", len(coef), len(xs)))
	}
	n := len(xs)
	if n == 0 {
		return nil
	}
	// Build via Newton's divided differences: O(n^2), numerically exact
	// over the field.
	copy(coef, ys)
	for j := 1; j < n; j++ {
		for i := n - 1; i >= j; i-- {
			num := coef[i].Sub(coef[i-1])
			den := xs[i].Sub(xs[i-j])
			coef[i] = num.Div(den)
		}
	}
	// Expand Newton form to monomial coefficients, Horner-style in one
	// buffer preallocated to the final degree: each step computes
	// result·(z − x_i) + coef[i] in place (shift up one degree, then
	// fold −x_i into the shifted coefficients downwards, so every read
	// sees the pre-shift value). This keeps the expansion allocation-free
	// where a MulLinear/Add chain would allocate two fresh polynomials
	// per node — interpolation sits under every decode.
	result := append(dst[:0], coef[n-1])
	for i := n - 2; i >= 0; i-- {
		d := len(result)
		result = append(result, result[d-1])
		for c := d - 1; c > 0; c-- {
			result[c] = result[c-1].Sub(xs[i].Mul(result[c]))
		}
		result[0] = xs[i].Neg().Mul(result[0]).Add(coef[i])
	}
	return result.normalize()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
