package approx

import (
	"fmt"
	"math"

	"repro/internal/poly"
)

// method is what the comparison tests ask of a fit: LeastSquares, the
// production method, and the paper's alternatives kept here beside it.
type method interface {
	Name() string
	Fit(f func(float64) float64, lo, hi float64, degree int) (poly.Real, error)
}

// Chebyshev fits by truncating the Chebyshev series computed from
// Chebyshev–Gauss quadrature on [lo, hi] (paper ref. [28]). Near-minimax,
// so its sup-norm error is close to the best achievable at the degree.
type Chebyshev struct {
	// Nodes is the quadrature size (defaults to 64, well above any
	// degree used in the paper).
	Nodes int
}

// Name implements method.
func (Chebyshev) Name() string { return "chebyshev" }

// Fit implements method.
func (m Chebyshev) Fit(f func(float64) float64, lo, hi float64, degree int) (poly.Real, error) {
	if err := checkFitArgs(lo, hi, degree); err != nil {
		return nil, err
	}
	n := m.Nodes
	if n == 0 {
		n = 64
	}
	if n <= degree {
		return nil, fmt.Errorf("approx: %d quadrature nodes cannot determine degree %d", n, degree)
	}
	// Chebyshev coefficients c_j = (2/n) Σ_k f(x_k)·cos(j·θ_k) at the
	// Chebyshev–Gauss nodes θ_k = π(k+1/2)/n, x mapped to [lo, hi].
	c := make([]float64, degree+1)
	for k := 0; k < n; k++ {
		theta := math.Pi * (float64(k) + 0.5) / float64(n)
		x := (lo+hi)/2 + (hi-lo)/2*math.Cos(theta)
		fx := f(x)
		for j := 0; j <= degree; j++ {
			c[j] += fx * math.Cos(float64(j)*theta)
		}
	}
	for j := range c {
		c[j] *= 2 / float64(n)
	}
	c[0] /= 2

	// Convert the truncated series Σ c_j·T_j(t), t = (2x-lo-hi)/(hi-lo),
	// to monomial coefficients in x via the T recurrence.
	t := poly.NewReal(-(lo+hi)/(hi-lo), 2/(hi-lo))
	tPrev := poly.NewReal(1) // T_0
	tCur := t                // T_1
	out := tPrev.Scale(c[0])
	if degree >= 1 {
		out = out.Add(tCur.Scale(c[1]))
	}
	for j := 2; j <= degree; j++ {
		tNext := t.Scale(2).Mul(tCur).Sub(tPrev)
		out = out.Add(tNext.Scale(c[j]))
		tPrev, tCur = tCur, tNext
	}
	return out, nil
}

// Taylor expands the paper's activation tanh(x/2) around zero
// (paper ref. [27]). Unlike the other methods it ignores f and the
// interval beyond validation: the series is analytic, accurate near the
// origin, and degrades toward the interval ends — exactly the behaviour
// the paper discusses when motivating input normalisation.
type Taylor struct{}

// Name implements method.
func (Taylor) Name() string { return "taylor" }

// tanhSeries holds the Maclaurin coefficients of tanh(u) for odd powers
// u^1, u^3, …, u^15 (even-power coefficients are zero).
var tanhSeries = []float64{
	1,
	-1.0 / 3,
	2.0 / 15,
	-17.0 / 315,
	62.0 / 2835,
	-1382.0 / 155925,
	21844.0 / 6081075,
	-929569.0 / 638512875,
}

// Fit implements method for the symmetric sigmoid. Degrees above 15 are
// truncated to 15 (the highest tabulated term).
func (Taylor) Fit(_ func(float64) float64, lo, hi float64, degree int) (poly.Real, error) {
	if err := checkFitArgs(lo, hi, degree); err != nil {
		return nil, err
	}
	coeffs := make([]float64, degree+1)
	for i, c := range tanhSeries {
		pow := 2*i + 1
		if pow > degree {
			break
		}
		// tanh(x/2): substitute u = x/2 into c·u^pow.
		coeffs[pow] = c * math.Pow(0.5, float64(pow))
	}
	return poly.NewReal(coeffs...), nil
}
