package poly

import (
	"fmt"
	"math"
	"strings"
)

// Real is a dense polynomial over float64, constant term first.
// It carries activation-function approximations (package approx) into the
// neural network and the fixed-point verification model.
type Real []float64

// NewReal returns a copy of coeffs as a polynomial, trimming trailing
// coefficients that are exactly zero.
func NewReal(coeffs ...float64) Real {
	p := make(Real, len(coeffs))
	copy(p, coeffs)
	return p.normalize()
}

func (p Real) normalize() Real {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// Degree returns the degree with the zero polynomial at -1.
func (p Real) Degree() int { return len(p) - 1 }

// IsZero reports whether p has no nonzero coefficients.
func (p Real) IsZero() bool { return len(p) == 0 }

// Clone returns an independent copy.
func (p Real) Clone() Real {
	q := make(Real, len(p))
	copy(q, p)
	return q
}

// Coeff returns the coefficient of x^i (zero beyond the degree).
func (p Real) Coeff(i int) float64 {
	if i < 0 || i >= len(p) {
		return 0
	}
	return p[i]
}

// Eval evaluates p at x with Horner's rule.
func (p Real) Eval(x float64) float64 {
	var acc float64
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc*x + p[i]
	}
	return acc
}

// Derivative returns dp/dx.
func (p Real) Derivative() Real {
	if len(p) <= 1 {
		return nil
	}
	out := make(Real, len(p)-1)
	for i := 1; i < len(p); i++ {
		out[i-1] = p[i] * float64(i)
	}
	return out.normalize()
}

// Add returns p + q.
func (p Real) Add(q Real) Real {
	n := max(len(p), len(q))
	out := make(Real, n)
	for i := range out {
		out[i] = p.Coeff(i) + q.Coeff(i)
	}
	return out.normalize()
}

// Sub returns p - q.
func (p Real) Sub(q Real) Real {
	n := max(len(p), len(q))
	out := make(Real, n)
	for i := range out {
		out[i] = p.Coeff(i) - q.Coeff(i)
	}
	return out.normalize()
}

// Scale returns c·p.
func (p Real) Scale(c float64) Real {
	out := make(Real, len(p))
	for i := range p {
		out[i] = c * p[i]
	}
	return out.normalize()
}

// Mul returns p·q by schoolbook convolution.
func (p Real) Mul(q Real) Real {
	if p.IsZero() || q.IsZero() {
		return nil
	}
	out := make(Real, len(p)+len(q)-1)
	for i, pi := range p {
		for j, qj := range q {
			out[i+j] += pi * qj
		}
	}
	return out.normalize()
}

// MaxErrorOn returns the maximum absolute deviation |p(x) - f(x)| sampled
// at n+1 uniform points on [lo, hi]. Approximation quality reporting uses
// this (paper Theorem 1's σ bound is with respect to the sup norm).
func (p Real) MaxErrorOn(f func(float64) float64, lo, hi float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	var worst float64
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		if d := math.Abs(p.Eval(x) - f(x)); d > worst {
			worst = d
		}
	}
	return worst
}

// String renders p with 6 significant digits per coefficient.
func (p Real) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		switch i {
		case 0:
			fmt.Fprintf(&b, "%.6g", p[i])
		case 1:
			fmt.Fprintf(&b, "%.6g·x", p[i])
		default:
			fmt.Fprintf(&b, "%.6g·x^%d", p[i], i)
		}
	}
	return b.String()
}
