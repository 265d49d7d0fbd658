package approx

import (
	"math"
	"testing"

	"repro/internal/poly"
)

func TestSymmetricSigmoid(t *testing.T) {
	a := SymmetricSigmoid()
	// Check against the paper's closed form (eq. 10).
	for _, x := range []float64{-3, -1, -0.5, 0, 0.5, 1, 3} {
		want := (1 - math.Exp(-x)) / (1 + math.Exp(-x))
		if got := a.F(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("F(%g) = %g, want %g", x, got, want)
		}
	}
	if a.F(0) != 0 {
		t.Error("F(0) != 0")
	}
	// Odd symmetry.
	if math.Abs(a.F(1.3)+a.F(-1.3)) > 1e-12 {
		t.Error("F not odd")
	}
	// Derivative by central differences.
	for _, x := range []float64{-2, -0.3, 0, 0.7, 2} {
		h := 1e-6
		want := (a.F(x+h) - a.F(x-h)) / (2 * h)
		if got := a.DF(x); math.Abs(got-want) > 1e-6 {
			t.Errorf("DF(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestFromPolynomial(t *testing.T) {
	p := poly.NewReal(1, 2, 3) // 1 + 2x + 3x²
	a := FromPolynomial("poly", p)
	if got := a.F(2); got != 17 {
		t.Errorf("F(2) = %g", got)
	}
	if got := a.DF(2); got != 14 { // 2 + 6x
		t.Errorf("DF(2) = %g", got)
	}
}

// TestFromPolynomialClosuresArePoly pins the invariant the consumers of
// Activation.Poly rely on (nn's single-layer kernels, core's fixed-point
// channel): F and DF are exactly Poly and its derivative, bit for bit on
// a probe grid reaching well outside the fit interval — and stay so when
// the caller goes on to edit the polynomial it passed in.
func TestFromPolynomialClosuresArePoly(t *testing.T) {
	polys := []poly.Real{poly.NewReal(0.25)} // degree 0: an empty derivative
	for degree := 1; degree <= 5; degree++ {
		p, err := LeastSquares{SamplePoints: 21}.Fit(SymmetricSigmoid().F, -2, 2, degree)
		if err != nil {
			t.Fatal(err)
		}
		polys = append(polys, p)
	}
	for degree, p := range polys {
		a := FromPolynomial("ls", p)
		for i := range p {
			p[i] += 1
		}
		dp := a.Poly.Derivative()
		for i := -400; i <= 400; i++ {
			x := float64(i) / 40
			if got, want := a.F(x), a.Poly.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("degree %d: F(%g) = %v, Poly.Eval gives %v", degree, x, got, want)
			}
			if got, want := a.DF(x), dp.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("degree %d: DF(%g) = %v, Poly.Derivative().Eval gives %v", degree, x, got, want)
			}
		}
	}
}

func TestLeastSquaresPaperSetting(t *testing.T) {
	// The paper's configuration: 21 uniform points on [-2, 2].
	act := SymmetricSigmoid()
	m := LeastSquares{SamplePoints: 21}
	prevErr := math.Inf(1)
	for _, deg := range []int{1, 3, 5, 7} {
		p, rep, err := Evaluate(m, act.F, -2, 2, deg)
		if err != nil {
			t.Fatal(err)
		}
		if p.Degree() > deg {
			t.Errorf("degree %d fit has degree %d", deg, p.Degree())
		}
		if rep.MaxError >= prevErr {
			t.Errorf("degree %d error %g did not improve on %g", deg, rep.MaxError, prevErr)
		}
		prevErr = rep.MaxError
	}
	// Degree-3 fit must be usably accurate on the working interval —
	// the paper calls this "ideal approximation accuracy".
	p, _ := m.Fit(act.F, -2, 2, 3)
	if e := p.MaxErrorOn(act.F, -2, 2, 1000); e > 0.01 {
		t.Errorf("degree-3 max error %g, want < 0.01", e)
	}
}

func TestLeastSquaresOddFunctionHasOddFit(t *testing.T) {
	// Fitting an odd function on a symmetric interval with symmetric
	// samples should produce (numerically) vanishing even coefficients.
	act := SymmetricSigmoid()
	p, err := LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4} {
		if math.Abs(p.Coeff(i)) > 1e-10 {
			t.Errorf("even coefficient %d = %g, want ~0", i, p.Coeff(i))
		}
	}
}

func TestLeastSquaresValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := (LeastSquares{SamplePoints: 3}).Fit(f, -1, 1, 5); err == nil {
		t.Error("underdetermined fit accepted")
	}
	if _, err := (LeastSquares{}).Fit(f, 1, -1, 2); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := (LeastSquares{}).Fit(f, -1, 1, 0); err == nil {
		t.Error("degree 0 accepted")
	}
}

func TestChebyshevNearMinimax(t *testing.T) {
	act := SymmetricSigmoid()
	for _, deg := range []int{3, 5, 7} {
		p, err := Chebyshev{}.Fit(act.F, -2, 2, deg)
		if err != nil {
			t.Fatal(err)
		}
		e := p.MaxErrorOn(act.F, -2, 2, 1000)
		// Chebyshev truncation is within a modest factor of minimax; for
		// this smooth function the errors are tiny.
		bound := []float64{0, 0, 0, 0.01, 0, 1e-3, 0, 1e-4}[deg]
		if e > bound {
			t.Errorf("degree %d Chebyshev error %g > %g", deg, e, bound)
		}
	}
}

func TestChebyshevRecoversPolynomialExactly(t *testing.T) {
	// Fitting a polynomial of degree ≤ requested must reproduce it.
	target := poly.NewReal(0.5, -1, 0, 2) // 0.5 - x + 2x³
	p, err := Chebyshev{}.Fit(target.Eval, -1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 3; i++ {
		if math.Abs(p.Coeff(i)-target.Coeff(i)) > 1e-9 {
			t.Errorf("coeff %d = %g, want %g", i, p.Coeff(i), target.Coeff(i))
		}
	}
}

func TestChebyshevValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := (Chebyshev{Nodes: 2}).Fit(f, -1, 1, 5); err == nil {
		t.Error("too few nodes accepted")
	}
	if _, err := (Chebyshev{}).Fit(f, 0, 0, 2); err == nil {
		t.Error("empty interval accepted")
	}
}

func TestTaylorMatchesSeriesNearZero(t *testing.T) {
	act := SymmetricSigmoid()
	p, err := Taylor{}.Fit(act.F, -1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// tanh(x/2) = x/2 - x³/24 + x⁵/240 ...
	if math.Abs(p.Coeff(1)-0.5) > 1e-12 {
		t.Errorf("x coeff = %g, want 0.5", p.Coeff(1))
	}
	if math.Abs(p.Coeff(3)+1.0/24) > 1e-12 {
		t.Errorf("x³ coeff = %g, want %g", p.Coeff(3), -1.0/24)
	}
	if math.Abs(p.Coeff(5)-1.0/240) > 1e-12 {
		t.Errorf("x⁵ coeff = %g, want %g", p.Coeff(5), 1.0/240)
	}
	// Excellent near zero: the truncation error at x=0.5 is the x⁷ term,
	// |17/315·(1/2)⁷·0.5⁷| ≈ 3.3e-6.
	if e := p.MaxErrorOn(act.F, -0.5, 0.5, 200); e > 5e-6 {
		t.Errorf("near-zero error %g", e)
	}
}

func TestTaylorDegradesAtIntervalEnds(t *testing.T) {
	// The paper's §IV discussion: Taylor accuracy collapses away from the
	// expansion point, motivating normalisation of encoded data. At equal
	// degree, least-squares must beat Taylor in sup norm on [-2, 2].
	act := SymmetricSigmoid()
	tp, err := Taylor{}.Fit(act.F, -2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	te := tp.MaxErrorOn(act.F, -2, 2, 1000)
	le := lp.MaxErrorOn(act.F, -2, 2, 1000)
	if le >= te {
		t.Errorf("least-squares error %g not below Taylor %g", le, te)
	}
}

func TestTaylorValidation(t *testing.T) {
	if _, err := (Taylor{}).Fit(nil, -1, 1, 0); err == nil {
		t.Error("degree 0 accepted")
	}
}

func TestEvaluateReport(t *testing.T) {
	act := SymmetricSigmoid()
	_, rep, err := Evaluate(LeastSquares{SamplePoints: 21}, act.F, -2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "least-squares" || rep.Degree != 3 || rep.Lo != -2 || rep.Hi != 2 {
		t.Errorf("report metadata wrong: %+v", rep)
	}
	if rep.MaxError <= 0 || rep.MaxError > 0.05 {
		t.Errorf("report MaxError = %g", rep.MaxError)
	}
}

func TestMethodNames(t *testing.T) {
	if (LeastSquares{}).Name() != "least-squares" ||
		(Chebyshev{}).Name() != "chebyshev" ||
		(Taylor{}).Name() != "taylor" {
		t.Error("method names changed; experiment output depends on them")
	}
}
