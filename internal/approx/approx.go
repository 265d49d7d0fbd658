// Package approx approximates the non-polynomial activation functions of
// the shared ML model by polynomials (paper §IV Step 2 and §V).
//
// LCC's Reed–Solomon decoding only applies to polynomial computations, so
// every occurrence of the activation
//
//	F(x) = (1 - e^(-x)) / (1 + e^(-x)) = tanh(x/2)        (paper eq. 10)
//
// is replaced by a polynomial fit on the working interval [-D, D] fixed by
// the encoding-element selection rule (paper eq. 9) by least-squares
// fitting on k uniform sample points (the method the evaluation uses: 21
// points on [-2, 2]). The paper's other methods — Chebyshev series
// truncation and Taylor expansion — and the Remez minimax live in this
// package's tests as the comparison points of its §IV finding.
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

// LeastSquares fits by minimising the squared error on SamplePoints
// uniform samples — the paper's method (§VI uses 21 points on [-2, 2]).
type LeastSquares struct {
	// SamplePoints is the number of uniform sample points k; the paper's
	// vehicles choose k by available compute. Must be > degree.
	SamplePoints int
}

// Name identifies the method in a Report.
func (LeastSquares) Name() string { return "least-squares" }

// Fit returns a polynomial of degree ≤ degree approximating f on
// [lo, hi], via Householder QR on the Vandermonde system.
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

// Evaluate fits f by least squares and measures the sup-norm error.
func Evaluate(m LeastSquares, f func(float64) float64, lo, hi float64, degree int) (poly.Real, Report, error) {
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
