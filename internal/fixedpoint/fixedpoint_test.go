package fixedpoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []uint{0, 53, 64} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%d) accepted", bad)
		}
	}
	if _, err := New(20); err != nil {
		t.Errorf("New(20): %v", err)
	}
}

// mustNew is New for the statically valid fractional-bit counts the tests
// use.
func mustNew(frac uint) *Codec {
	c, err := New(frac)
	if err != nil {
		panic(err)
	}
	return c
}

// quantizationError is the worst-case absolute rounding error of a single
// Encode: half a quantum.
func (c *Codec) quantizationError() float64 { return 0.5 / c.scale }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := mustNew(20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := rng.NormFloat64() * 100
		e, err := c.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Decode(e); math.Abs(got-x) > c.quantizationError() {
			t.Fatalf("roundtrip %g -> %g, error > %g", x, got, c.quantizationError())
		}
	}
}

func TestEncodeNegative(t *testing.T) {
	c := mustNew(10)
	e, err := c.Encode(-1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Decode(e); got != -1.5 {
		t.Errorf("Decode = %g, want -1.5", got)
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	c := mustNew(16)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.Encode(bad); err == nil {
			t.Errorf("Encode(%g) accepted", bad)
		}
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	c := mustNew(40)
	if _, err := c.Encode(c.maxAbs * 2); err == nil {
		t.Error("overflow accepted")
	}
	if _, err := c.Encode(c.maxAbs * 0.99); err != nil {
		t.Errorf("in-range value rejected: %v", err)
	}
}

func TestFieldArithmeticCarriesScale(t *testing.T) {
	// (a + b) and (a * b) in the field must decode to the real sum and
	// product (the latter at doubled scale).
	c := mustNew(20)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := rng.Float64()*4 - 2
		b := rng.Float64()*4 - 2
		ea, err := c.Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := c.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Decode(ea.Add(eb)); math.Abs(got-(a+b)) > 2*c.quantizationError() {
			t.Fatalf("sum %g+%g decoded %g", a, b, got)
		}
		if got := c.DecodeScaled(ea.Mul(eb), 2); math.Abs(got-a*b) > 1e-4 {
			t.Fatalf("product %g*%g decoded %g", a, b, got)
		}
	}
}

func TestDecodeScaledPolynomialEvaluation(t *testing.T) {
	// Evaluate q(x) = 2x^2 - x + 0.5 entirely in the field with scale
	// management: encode coefficients and x at frac bits, compute
	// c2·x² + c1·x·s + c0·s² which carries 3·frac bits.
	c := mustNew(16)
	x := 0.75
	ex, _ := c.Encode(x)
	e2, _ := c.Encode(2)
	e1, _ := c.Encode(-1)
	e0, _ := c.Encode(0.5)
	s, _ := c.Encode(1) // one unit of scale

	term2 := e2.Mul(ex).Mul(ex)
	term1 := e1.Mul(ex).Mul(s)
	term0 := e0.Mul(s).Mul(s)
	sum := term2.Add(term1).Add(term0)
	want := 2*x*x - x + 0.5
	if got := c.DecodeScaled(sum, 3); math.Abs(got-want) > 1e-3 {
		t.Fatalf("poly eval decoded %g, want %g", got, want)
	}
}

func TestEncodeVecDecodeVec(t *testing.T) {
	c := mustNew(24)
	xs := []float64{0, -1, 2.5, 1e-3}
	es, err := c.EncodeVec(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := c.Decode(es[i]); math.Abs(got-xs[i]) > c.quantizationError() {
			t.Errorf("vec[%d] = %g, want %g", i, got, xs[i])
		}
	}
	if _, err := c.EncodeVec([]float64{math.NaN()}); err == nil {
		t.Error("vec with NaN accepted")
	}
	into := make([]field.Element, len(xs))
	if err := c.EncodeVecInto(into, xs); err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if into[i] != es[i] {
			t.Errorf("EncodeVecInto[%d] = %v, EncodeVec gives %v", i, into[i], es[i])
		}
	}
	if c.EncodeVecInto(into[:2], xs) == nil {
		t.Error("short destination accepted")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	c := mustNew(30)
	f := func(raw int32) bool {
		x := float64(raw) / 1000 // range ±2.1e6, inside MaxAbs for frac=30? MaxAbs ≈ 1.07e9
		e, err := c.Encode(x)
		if err != nil {
			return false
		}
		return math.Abs(c.Decode(e)-x) <= c.quantizationError()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAdditiveHomomorphism(t *testing.T) {
	c := mustNew(20)
	f := func(a, b int16) bool {
		x, y := float64(a)/100, float64(b)/100
		ex, err1 := c.Encode(x)
		ey, err2 := c.Encode(y)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(c.Decode(ex.Add(ey))-(x+y)) <= 2*c.quantizationError()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Decode recovers the real value from a residue produced by Encode (or by
// field arithmetic on encoded values carrying the same scale).
func (c *Codec) Decode(e field.Element) float64 {
	return float64(e.Centered()) / c.scale
}
