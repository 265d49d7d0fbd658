package poly

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRealEval(t *testing.T) {
	p := NewReal(1, 0, 2) // 1 + 2x^2
	tests := []struct{ x, want float64 }{
		{0, 1}, {1, 3}, {-1, 3}, {2, 9}, {0.5, 1.5},
	}
	for _, tt := range tests {
		if got := p.Eval(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("p(%g) = %g, want %g", tt.x, got, tt.want)
		}
	}
	if got := Real(nil).Eval(3); got != 0 {
		t.Errorf("zero poly eval = %g", got)
	}
}

func TestRealArithmetic(t *testing.T) {
	p := NewReal(1, 2)  // 1 + 2x
	q := NewReal(3, -2) // 3 - 2x
	if got := p.Add(q); got.Degree() != 0 || !almostEqual(got.Coeff(0), 4, 0) {
		t.Errorf("Add = %v", got)
	}
	// (1+2x)(3-2x) = 3 + 4x - 4x^2
	got := p.Mul(q)
	want := NewReal(3, 4, -4)
	for i := 0; i <= 2; i++ {
		if !almostEqual(got.Coeff(i), want.Coeff(i), 1e-12) {
			t.Errorf("Mul coeff %d = %g, want %g", i, got.Coeff(i), want.Coeff(i))
		}
	}
	if got := p.Sub(p); !got.IsZero() {
		t.Errorf("p-p = %v", got)
	}
	if got := p.Scale(2.5); !almostEqual(got.Coeff(1), 5, 0) {
		t.Errorf("Scale = %v", got)
	}
}

func TestRealDerivative(t *testing.T) {
	p := NewReal(7, 3, 0, 2) // 7 + 3x + 2x^3
	got := p.Derivative()    // 3 + 6x^2
	want := NewReal(3, 0, 6)
	for i := 0; i <= 2; i++ {
		if !almostEqual(got.Coeff(i), want.Coeff(i), 1e-12) {
			t.Errorf("Derivative coeff %d = %g, want %g", i, got.Coeff(i), want.Coeff(i))
		}
	}
}

func TestMaxErrorOn(t *testing.T) {
	// p(x) = x approximates sin(x) near 0; worst error on [-1,1] is at ±1.
	p := NewReal(0, 1)
	got := p.MaxErrorOn(math.Sin, -1, 1, 1000)
	want := 1 - math.Sin(1)
	if !almostEqual(got, want, 1e-4) {
		t.Errorf("MaxErrorOn = %g, want ≈ %g", got, want)
	}
}

func TestRealString(t *testing.T) {
	if got := NewReal(1.5, -2).String(); got != "-2·x + 1.5" {
		t.Errorf("String = %q", got)
	}
	if got := Real(nil).String(); got != "0" {
		t.Errorf("zero String = %q", got)
	}
}
