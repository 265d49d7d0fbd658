package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

// randPoly returns a random polynomial of degree at most maxDeg.
func randPoly(rng *rand.Rand, maxDeg int) Poly {
	n := rng.Intn(maxDeg + 2) // 0..maxDeg+1 coefficients
	coeffs := make([]field.Element, n)
	for i := range coeffs {
		coeffs[i] = field.Rand(rng)
	}
	return New(coeffs...)
}

func TestNewNormalizes(t *testing.T) {
	p := New(field.New(1), field.New(2), field.Zero, field.Zero)
	if p.Degree() != 1 {
		t.Errorf("degree = %d, want 1", p.Degree())
	}
	z := New(field.Zero, field.Zero)
	if !z.IsZero() || z.Degree() != -1 {
		t.Errorf("zero poly: IsZero=%v Degree=%d", z.IsZero(), z.Degree())
	}
}

func TestEval(t *testing.T) {
	// p(z) = 3 + 2z + z^2; p(5) = 3 + 10 + 25 = 38
	p := NewInt64(3, 2, 1)
	if got := p.Eval(field.New(5)); got != field.New(38) {
		t.Errorf("p(5) = %v, want 38", got)
	}
	if got := Poly(nil).Eval(field.New(7)); got != field.Zero {
		t.Errorf("zero poly eval = %v, want 0", got)
	}
}

func TestEvalMany(t *testing.T) {
	p := NewInt64(1, 1) // 1 + z
	xs := []field.Element{field.New(0), field.New(1), field.New(2)}
	got := p.EvalMany(xs)
	want := []field.Element{field.New(1), field.New(2), field.New(3)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("EvalMany[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAddSub(t *testing.T) {
	p := NewInt64(1, 2, 3)
	q := NewInt64(4, 5)
	sum := p.Add(q)
	if !sum.Equal(NewInt64(5, 7, 3)) {
		t.Errorf("Add = %v", sum)
	}
	if !sum.Sub(q).Equal(p) {
		t.Errorf("(p+q)-q != p")
	}
	// Cancellation must renormalize.
	if got := p.Sub(p); !got.IsZero() {
		t.Errorf("p-p = %v, want zero", got)
	}
}

func TestMul(t *testing.T) {
	// (1+z)(1-z) = 1 - z^2
	p := NewInt64(1, 1)
	q := NewInt64(1, -1)
	if got := p.Mul(q); !got.Equal(NewInt64(1, 0, -1)) {
		t.Errorf("Mul = %v", got)
	}
	if got := p.Mul(nil); !got.IsZero() {
		t.Errorf("p*0 = %v", got)
	}
}

func TestMulLinear(t *testing.T) {
	// (2 + z)(z - 3) = -6 + 2z - 3z + z^2 = -6 - z + z^2
	p := NewInt64(2, 1)
	if got := p.MulLinear(field.New(3)); !got.Equal(NewInt64(-6, -1, 1)) {
		t.Errorf("MulLinear = %v", got)
	}
}

func TestQuoRem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := randPoly(rng, 12)
		q := randPoly(rng, 6)
		if q.IsZero() {
			continue
		}
		quo, rem := p.QuoRem(q)
		if rem.Degree() >= q.Degree() {
			t.Fatalf("rem degree %d >= divisor degree %d", rem.Degree(), q.Degree())
		}
		if got := quo.Mul(q).Add(rem); !got.Equal(p) {
			t.Fatalf("quo*q+rem != p:\n p=%v\n q=%v\n got=%v", p, q, got)
		}
	}
}

func TestQuoRemZeroDivisorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero poly did not panic")
		}
	}()
	NewInt64(1, 2).QuoRem(nil)
}

func TestDerivative(t *testing.T) {
	// d/dz (1 + 2z + 3z^2) = 2 + 6z
	p := NewInt64(1, 2, 3)
	if got := p.Derivative(); !got.Equal(NewInt64(2, 6)) {
		t.Errorf("Derivative = %v", got)
	}
	if got := NewInt64(5).Derivative(); !got.IsZero() {
		t.Errorf("constant derivative = %v", got)
	}
}

func TestInterpolate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		want := randPoly(rng, 8)
		n := want.Degree() + 1
		if n < 1 {
			n = 1
		}
		xs := field.RandDistinct(rng, n, nil)
		ys := want.EvalMany(xs)
		got, err := Interpolate(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("interpolate mismatch:\nwant %v\ngot  %v", want, got)
		}
	}
}

func TestInterpolateDuplicateNodes(t *testing.T) {
	_, err := Interpolate(
		[]field.Element{field.New(1), field.New(1)},
		[]field.Element{field.New(2), field.New(3)},
	)
	if err == nil {
		t.Fatal("expected error on duplicate nodes")
	}
}

func TestInterpolateEmpty(t *testing.T) {
	p, err := Interpolate(nil, nil)
	if err != nil || !p.IsZero() {
		t.Fatalf("empty interpolation = %v, %v", p, err)
	}
}

func TestPropertyRingLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	rng := rand.New(rand.NewSource(4))
	gen := func() Poly { return randPoly(rng, 6) }

	t.Run("mul distributes over add", func(t *testing.T) {
		f := func(_ uint8) bool {
			p, q, r := gen(), gen(), gen()
			return p.Mul(q.Add(r)).Equal(p.Mul(q).Add(p.Mul(r)))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul commutative", func(t *testing.T) {
		f := func(_ uint8) bool {
			p, q := gen(), gen()
			return p.Mul(q).Equal(q.Mul(p))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("eval is ring hom", func(t *testing.T) {
		f := func(x uint64) bool {
			p, q := gen(), gen()
			at := field.New(x)
			return p.Mul(q).Eval(at) == p.Eval(at).Mul(q.Eval(at)) &&
				p.Add(q).Eval(at) == p.Eval(at).Add(q.Eval(at))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestString(t *testing.T) {
	if got := NewInt64(3, 2, 1).String(); got != "1·z^2 + 2·z + 3" {
		t.Errorf("String = %q", got)
	}
	if got := Poly(nil).String(); got != "0" {
		t.Errorf("zero String = %q", got)
	}
}

// NewInt64 builds a polynomial from signed integer coefficients,
// a convenience for tests and examples.
func NewInt64(coeffs ...int64) Poly {
	p := make(Poly, len(coeffs))
	for i, c := range coeffs {
		p[i] = field.NewInt64(c)
	}
	return p.normalize()
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := max(len(p), len(q))
	out := make(Poly, n)
	for i := range out {
		out[i] = p.Coeff(i).Add(q.Coeff(i))
	}
	return out.normalize()
}

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly {
	n := max(len(p), len(q))
	out := make(Poly, n)
	for i := range out {
		out[i] = p.Coeff(i).Sub(q.Coeff(i))
	}
	return out.normalize()
}

// Derivative returns dp/dz.
func (p Poly) Derivative() Poly {
	if len(p) <= 1 {
		return nil
	}
	out := make(Poly, len(p)-1)
	for i := 1; i < len(p); i++ {
		out[i-1] = p[i].Mul(field.New(uint64(i)))
	}
	return out.normalize()
}

// Coeff returns the coefficient of z^i, which is zero beyond the degree.
func (p Poly) Coeff(i int) field.Element {
	if i < 0 || i >= len(p) {
		return field.Zero
	}
	return p[i]
}
