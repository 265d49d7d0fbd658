package approx

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/poly"
)

// Remez computes the minimax (best sup-norm) polynomial approximation by
// the Remez exchange algorithm. It is the optimum the paper's Theorem 1
// guarantees exists and the yardstick the other methods are measured
// against: least-squares and Chebyshev truncation approach it within a
// small factor, Taylor does not.
type Remez struct {
	// GridPoints is the dense evaluation grid size (default 2048).
	GridPoints int
	// MaxIterations bounds the exchange loop (default 64).
	MaxIterations int
	// Tolerance stops the loop when the levelled error and the observed
	// maximum error agree to this relative precision (default 1e-10).
	Tolerance float64
}

// Name implements method.
func (Remez) Name() string { return "remez" }

// Fit implements method.
func (m Remez) Fit(f func(float64) float64, lo, hi float64, degree int) (poly.Real, error) {
	if err := checkFitArgs(lo, hi, degree); err != nil {
		return nil, err
	}
	grid := m.GridPoints
	if grid == 0 {
		grid = 2048
	}
	if grid < 4*(degree+2) {
		return nil, fmt.Errorf("approx: remez grid of %d too coarse for degree %d", grid, degree)
	}
	maxIter := m.MaxIterations
	if maxIter == 0 {
		maxIter = 64
	}
	tol := m.Tolerance
	if tol == 0 {
		tol = 1e-10
	}

	xs := make([]float64, grid)
	fs := make([]float64, grid)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(grid-1)
		fs[i] = f(xs[i])
	}

	// Initial reference: Chebyshev extrema of order degree+1 mapped to
	// [lo, hi] — the classical warm start.
	n := degree + 2
	ref := make([]float64, n)
	for i := 0; i < n; i++ {
		theta := math.Pi * float64(i) / float64(n-1)
		x := (lo+hi)/2 - (hi-lo)/2*math.Cos(theta)
		ref[i] = x
	}

	var best poly.Real
	for iter := 0; iter < maxIter; iter++ {
		// Solve for coefficients c_0..c_degree and the levelled error E:
		// p(x_i) + (−1)^i·E = f(x_i) on the reference.
		a := linalg.NewMatrix(n, n)
		b := make([]float64, n)
		for i, x := range ref {
			pw := 1.0
			for j := 0; j <= degree; j++ {
				a.Set(i, j, pw)
				pw *= x
			}
			sign := 1.0
			if i%2 == 1 {
				sign = -1
			}
			a.Set(i, degree+1, sign)
			b[i] = f(x)
		}
		sol, err := linalg.LeastSquares(a, b) // square: the exact solution
		if err != nil {
			return nil, fmt.Errorf("approx: remez reference system: %w", err)
		}
		p := poly.NewReal(sol[:degree+1]...)
		levelledE := sol[degree+1]
		levelled := math.Abs(levelledE)
		best = p

		// Global maximum of |e| on the dense grid.
		var xStar, eStar float64
		maxAbs := -1.0
		for i := range xs {
			e := p.Eval(xs[i]) - fs[i]
			if ae := math.Abs(e); ae > maxAbs {
				maxAbs, xStar, eStar = ae, xs[i], e
			}
		}
		if maxAbs-levelled <= tol*(1+levelled) {
			return p, nil // reference errors already dominate: optimal
		}

		// Single-point exchange: bring x* into the reference while
		// preserving the sign alternation. The reference error signs are
		// e(ref_i) = −(−1)^i·E by construction.
		refSign := func(i int) float64 {
			s := -1.0
			if i%2 == 1 {
				s = 1
			}
			return s * levelledE
		}
		sStar := math.Signbit(eStar)
		switch {
		case levelledE == 0:
			// Degenerate levelling (symmetric f): no sign structure yet;
			// replace the reference point nearest to x*.
			nearest, bestDist := 0, math.Inf(1)
			for i, x := range ref {
				if d := math.Abs(x - xStar); d < bestDist {
					bestDist, nearest = d, i
				}
			}
			ref[nearest] = xStar
			sortRef(ref)
		case xStar < ref[0]:
			if math.Signbit(refSign(0)) == sStar {
				ref[0] = xStar
			} else {
				copy(ref[1:], ref[:n-1])
				ref[0] = xStar
			}
		case xStar > ref[n-1]:
			if math.Signbit(refSign(n-1)) == sStar {
				ref[n-1] = xStar
			} else {
				copy(ref[:n-1], ref[1:])
				ref[n-1] = xStar
			}
		default:
			// x* lies between two reference points: replace the one with
			// the matching error sign.
			i := 0
			for i < n-1 && !(xStar >= ref[i] && xStar <= ref[i+1]) {
				i++
			}
			if math.Signbit(refSign(i)) == sStar {
				ref[i] = xStar
			} else {
				ref[i+1] = xStar
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("approx: remez did not converge")
	}
	return best, nil
}

// sortRef keeps the reference ascending after a degenerate replacement.
func sortRef(ref []float64) {
	for i := 1; i < len(ref); i++ {
		for j := i; j > 0 && ref[j] < ref[j-1]; j-- {
			ref[j], ref[j-1] = ref[j-1], ref[j]
		}
	}
}

func TestRemezBeatsOtherMethods(t *testing.T) {
	// Minimax is optimal in sup norm: it must not lose to least squares
	// or Chebyshev truncation at equal degree (ties within tolerance).
	act := SymmetricSigmoid()
	for _, deg := range []int{1, 3, 5} {
		rp, err := Remez{}.Fit(act.F, -2, 2, deg)
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		re := rp.MaxErrorOn(act.F, -2, 2, 4000)
		for _, m := range []method{LeastSquares{SamplePoints: 41}, Chebyshev{}} {
			op, err := m.Fit(act.F, -2, 2, deg)
			if err != nil {
				t.Fatal(err)
			}
			oe := op.MaxErrorOn(act.F, -2, 2, 4000)
			if re > oe*(1+1e-6) {
				t.Errorf("degree %d: remez %g worse than %s %g", deg, re, m.Name(), oe)
			}
		}
	}
}

func TestRemezEquioscillation(t *testing.T) {
	// Chebyshev's theorem: the optimal error equioscillates with deg+2
	// alternating extrema of (numerically) equal magnitude.
	f := math.Exp
	const deg = 4
	p, err := Remez{}.Fit(f, -1, 1, deg)
	if err != nil {
		t.Fatal(err)
	}
	const grid = 8000
	var extrema []float64
	prevSign := 0
	bestAbs := -1.0
	var bestVal float64
	flush := func() {
		if prevSign != 0 {
			extrema = append(extrema, bestVal)
		}
	}
	for i := 0; i <= grid; i++ {
		x := -1 + 2*float64(i)/grid
		e := p.Eval(x) - f(x)
		s := 0
		if e > 0 {
			s = 1
		} else if e < 0 {
			s = -1
		}
		if s == 0 {
			continue
		}
		if s != prevSign {
			flush()
			prevSign = s
			bestAbs = -1
		}
		if ae := math.Abs(e); ae > bestAbs {
			bestAbs = ae
			bestVal = e
		}
	}
	flush()
	if len(extrema) < deg+2 {
		t.Fatalf("only %d alternations, want >= %d", len(extrema), deg+2)
	}
	// Magnitudes of the first deg+2 alternations agree within 1%.
	var lo, hi float64 = math.Inf(1), 0
	for _, e := range extrema[:deg+2] {
		ae := math.Abs(e)
		lo = math.Min(lo, ae)
		hi = math.Max(hi, ae)
	}
	if (hi-lo)/hi > 0.01 {
		t.Errorf("extrema magnitudes not levelled: [%g, %g]", lo, hi)
	}
}

func TestRemezRecoversPolynomial(t *testing.T) {
	target := poly.NewReal(0.3, -1.2, 0, 0.7)
	p, err := Remez{}.Fit(target.Eval, -1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := p.MaxErrorOn(target.Eval, -1, 2, 1000); e > 1e-9 {
		t.Errorf("exact-degree fit error %g", e)
	}
}

func TestRemezValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := (Remez{}).Fit(f, 1, -1, 2); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := (Remez{}).Fit(f, -1, 1, 0); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := (Remez{GridPoints: 4}).Fit(f, -1, 1, 3); err == nil {
		t.Error("coarse grid accepted")
	}
}

func TestRemezName(t *testing.T) {
	if (Remez{}).Name() != "remez" {
		t.Error("name changed")
	}
}
