// Package approx approximates the non-polynomial activation functions of
// the shared ML model by polynomials (paper §IV Step 2 and §V).
//
// LCC's Reed–Solomon decoding only applies to polynomial computations, so
// every occurrence of the activation
//
//	F(x) = (1 - e^(-x)) / (1 + e^(-x)) = tanh(x/2)        (paper eq. 10)
//
// is replaced by a polynomial fit on the working interval [-D, D] fixed by
// the encoding-element selection rule (paper eq. 9). Three methods from
// the paper are implemented — least-squares fitting on k uniform sample
// points (the method the evaluation uses: 21 points on [-2, 2]), Chebyshev
// series truncation, and Taylor expansion — all behind one Method
// interface so experiments can ablate them.
package approx

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/poly"
)

// Activation bundles a scalar nonlinearity with its derivative for
// backpropagation.
type Activation struct {
	// Name identifies the activation in logs and experiment output.
	Name string
	// F is the activation function.
	F func(float64) float64
	// DF is its first derivative.
	DF func(float64) float64
	// Poly holds the polynomial behind F when the activation is an
	// approximation (nil for exact activations). The coded pipelines need
	// the coefficients to evaluate the model in fixed-point field
	// arithmetic.
	Poly poly.Real
}

// SymmetricSigmoid returns the paper's activation (eq. 10):
// F(x) = (1-e^(-x))/(1+e^(-x)) = tanh(x/2), with range (-1, 1).
// Its derivative is (1 - F(x)²)/2.
func SymmetricSigmoid() Activation {
	f := func(x float64) float64 { return math.Tanh(x / 2) }
	return Activation{
		Name: "symmetric-sigmoid",
		F:    f,
		DF: func(x float64) float64 {
			y := f(x)
			return (1 - y*y) / 2
		},
	}
}

// FromPolynomial wraps a polynomial as an Activation, the replacement the
// vehicles install into their local models (paper §IV Step 2). F and DF
// evaluate the activation's own copy, so F(x) is Poly.Eval(x) and DF(x) is
// Poly.Derivative().Eval(x) bit for bit whatever the caller does with p
// afterwards — consumers of Poly (nn's single-layer kernels, core's
// fixed-point channel) evaluate it in place of the closures.
func FromPolynomial(name string, p poly.Real) Activation {
	p = p.Clone()
	dp := p.Derivative()
	return Activation{
		Name: name,
		F:    p.Eval,
		DF:   dp.Eval,
		Poly: p,
	}
}

// Method produces a polynomial approximation of f on [lo, hi] with the
// requested degree.
type Method interface {
	// Name identifies the method in experiment output.
	Name() string
	// Fit returns a polynomial of degree ≤ degree approximating f on
	// [lo, hi].
	Fit(f func(float64) float64, lo, hi float64, degree int) (poly.Real, error)
}

// LeastSquares fits by minimising the squared error on SamplePoints
// uniform samples — the paper's method (§VI uses 21 points on [-2, 2]).
type LeastSquares struct {
	// SamplePoints is the number of uniform sample points k; the paper's
	// vehicles choose k by available compute. Must be > degree.
	SamplePoints int
}

// Name implements Method.
func (LeastSquares) Name() string { return "least-squares" }

// Fit implements Method via Householder QR on the Vandermonde system.
func (m LeastSquares) Fit(f func(float64) float64, lo, hi float64, degree int) (poly.Real, error) {
	if err := checkFitArgs(lo, hi, degree); err != nil {
		return nil, err
	}
	k := m.SamplePoints
	if k == 0 {
		k = 21 // the paper's default
	}
	if k <= degree {
		return nil, fmt.Errorf("approx: %d sample points cannot determine degree %d", k, degree)
	}
	xs := make([]float64, k)
	ys := make([]float64, k)
	for i := 0; i < k; i++ {
		xs[i] = lo + (hi-lo)*float64(i)/float64(k-1)
		ys[i] = f(xs[i])
	}
	coef, err := linalg.LeastSquares(linalg.Vandermonde(xs, degree), ys)
	if err != nil {
		return nil, fmt.Errorf("approx: least-squares fit: %w", err)
	}
	return poly.NewReal(coef...), nil
}

// Chebyshev fits by truncating the Chebyshev series computed from
// Chebyshev–Gauss quadrature on [lo, hi] (paper ref. [28]). Near-minimax,
// so its sup-norm error is close to the best achievable at the degree.
type Chebyshev struct {
	// Nodes is the quadrature size (defaults to 64, well above any
	// degree used in the paper).
	Nodes int
}

// Name implements Method.
func (Chebyshev) Name() string { return "chebyshev" }

// Fit implements Method.
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

// Name implements Method.
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

// Fit implements Method for the symmetric sigmoid. Degrees above 15 are
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

func checkFitArgs(lo, hi float64, degree int) error {
	if degree < 1 {
		return fmt.Errorf("approx: degree %d must be >= 1", degree)
	}
	if !(lo < hi) {
		return fmt.Errorf("approx: invalid interval [%g, %g]", lo, hi)
	}
	return nil
}

// Report describes the quality of a fit, the σ of the paper's Theorem 1.
type Report struct {
	Method   string
	Degree   int
	Lo, Hi   float64
	MaxError float64 // sup-norm error sampled on 1000 points
}

// Evaluate fits f with the method and measures the sup-norm error.
func Evaluate(m Method, f func(float64) float64, lo, hi float64, degree int) (poly.Real, Report, error) {
	p, err := m.Fit(f, lo, hi, degree)
	if err != nil {
		return nil, Report{}, err
	}
	return p, Report{
		Method:   m.Name(),
		Degree:   degree,
		Lo:       lo,
		Hi:       hi,
		MaxError: p.MaxErrorOn(f, lo, hi, 1000),
	}, nil
}
