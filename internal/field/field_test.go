package field

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// bigMod reduces a big.Int product modulo p for cross-checking.
func bigMod(op func(a, b *big.Int) *big.Int, x, y uint64) uint64 {
	p := new(big.Int).SetUint64(Modulus)
	r := op(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
	r.Mod(r, p)
	return r.Uint64()
}

func TestNewCanonical(t *testing.T) {
	tests := []struct {
		name string
		in   uint64
		want uint64
	}{
		{"zero", 0, 0},
		{"one", 1, 1},
		{"p-1", Modulus - 1, Modulus - 1},
		{"p wraps to zero", Modulus, 0},
		{"p+1 wraps to one", Modulus + 1, 1},
		{"2p wraps to zero", 2 * Modulus, 0},
		{"max uint64", ^uint64(0), (^uint64(0)) % Modulus},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := New(tt.in).Uint64(); got != tt.want {
				t.Errorf("New(%d) = %d, want %d", tt.in, got, tt.want)
			}
		})
	}
}

func TestNewInt64(t *testing.T) {
	if got := NewInt64(-1); got != New(Modulus-1) {
		t.Errorf("NewInt64(-1) = %v, want p-1", got)
	}
	if got := NewInt64(-5).Add(New(5)); got != Zero {
		t.Errorf("NewInt64(-5) + 5 = %v, want 0", got)
	}
	if got := NewInt64(42); got != New(42) {
		t.Errorf("NewInt64(42) = %v, want 42", got)
	}
}

func TestCentered(t *testing.T) {
	tests := []struct {
		in   Element
		want int64
	}{
		{New(0), 0},
		{New(7), 7},
		{NewInt64(-7), -7},
		{New(Modulus / 2), int64(Modulus / 2)},
		{New(Modulus/2 + 1), -int64(Modulus / 2)},
	}
	for _, tt := range tests {
		if got := tt.in.Centered(); got != tt.want {
			t.Errorf("Centered(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMulMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := Rand(rng), Rand(rng)
		want := bigMod(new(big.Int).Mul, a.Uint64(), b.Uint64())
		if got := a.Mul(b).Uint64(); got != want {
			t.Fatalf("Mul(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
}

func TestMulEdgeCases(t *testing.T) {
	pm1 := New(Modulus - 1) // = -1
	if got := pm1.Mul(pm1); got != One {
		t.Errorf("(-1)*(-1) = %v, want 1", got)
	}
	if got := pm1.Mul(Zero); got != Zero {
		t.Errorf("(-1)*0 = %v, want 0", got)
	}
	if got := pm1.Mul(One); got != pm1 {
		t.Errorf("(-1)*1 = %v, want p-1", got)
	}
}

func TestAddSubNeg(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := Rand(rng), Rand(rng)
		if got := a.Add(b).Sub(b); got != a {
			t.Fatalf("(a+b)-b = %v, want %v", got, a)
		}
		if got := a.Sub(b).Add(b); got != a {
			t.Fatalf("(a-b)+b = %v, want %v", got, a)
		}
		if got := a.Add(a.Neg()); got != Zero {
			t.Fatalf("a + (-a) = %v, want 0", got)
		}
	}
}

func TestInv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := RandNonZero(rng)
		if got := a.Mul(a.Inv()); got != One {
			t.Fatalf("a * a^-1 = %v, want 1 (a=%v)", got, a)
		}
	}
	if One.Inv() != One {
		t.Error("1^-1 != 1")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Zero.Inv()
}

func TestDiv(t *testing.T) {
	a, b := New(84), New(2)
	if got := a.Div(b); got != New(42) {
		t.Errorf("84/2 = %v, want 42", got)
	}
}

func TestExp(t *testing.T) {
	tests := []struct {
		base Element
		k    uint64
		want Element
	}{
		{New(2), 0, One},
		{New(2), 1, New(2)},
		{New(2), 10, New(1024)},
		{New(3), 4, New(81)},
		{Zero, 0, One}, // convention: 0^0 = 1
		{Zero, 5, Zero},
	}
	for _, tt := range tests {
		if got := tt.base.Exp(tt.k); got != tt.want {
			t.Errorf("%v^%d = %v, want %v", tt.base, tt.k, got, tt.want)
		}
	}
	// Fermat's little theorem: a^(p-1) = 1 for a != 0.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		a := RandNonZero(rng)
		if got := a.Exp(Modulus - 1); got != One {
			t.Fatalf("a^(p-1) = %v, want 1 (a=%v)", got, a)
		}
	}
}

func TestBatchInv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]Element, 100)
	want := make([]Element, 100)
	for i := range xs {
		xs[i] = RandNonZero(rng)
		want[i] = xs[i].Inv()
	}
	BatchInv(xs)
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("BatchInv[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}

func TestBatchInvEmpty(t *testing.T) {
	BatchInv(nil) // must not panic
}

func TestBatchInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BatchInv with zero did not panic")
		}
	}()
	BatchInv([]Element{One, Zero, New(3)})
}

func TestSumProductDot(t *testing.T) {
	xs := []Element{New(1), New(2), New(3), New(4)}
	if got := Sum(xs); got != New(10) {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := Dot(xs, xs); got != New(30) {
		t.Errorf("Dot = %v, want 30", got)
	}
	if got := Sum(nil); got != Zero {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]Element{One}, []Element{One, One})
}

func TestDistinct(t *testing.T) {
	if !Distinct([]Element{New(1), New(2), New(3)}) {
		t.Error("distinct slice reported as duplicate")
	}
	if Distinct([]Element{New(1), New(2), New(1)}) {
		t.Error("duplicate slice reported as distinct")
	}
	if !Distinct(nil) {
		t.Error("empty slice should be distinct")
	}
}

func TestRandDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	exclude := []Element{New(1), New(2), New(3)}
	got := RandDistinct(rng, 50, exclude)
	if len(got) != 50 {
		t.Fatalf("len = %d, want 50", len(got))
	}
	if !Distinct(got) {
		t.Error("RandDistinct returned duplicates")
	}
	ex := map[Element]struct{}{}
	for _, e := range exclude {
		ex[e] = struct{}{}
	}
	for _, e := range got {
		if _, bad := ex[e]; bad {
			t.Errorf("RandDistinct returned excluded element %v", e)
		}
	}
}

// genElem adapts quick.Value generation to canonical field elements.
func genElem(v uint64) Element { return New(v) }

func TestPropertyFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}

	t.Run("add commutative", func(t *testing.T) {
		f := func(x, y uint64) bool {
			a, b := genElem(x), genElem(y)
			return a.Add(b) == b.Add(a)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul commutative", func(t *testing.T) {
		f := func(x, y uint64) bool {
			a, b := genElem(x), genElem(y)
			return a.Mul(b) == b.Mul(a)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("add associative", func(t *testing.T) {
		f := func(x, y, z uint64) bool {
			a, b, c := genElem(x), genElem(y), genElem(z)
			return a.Add(b).Add(c) == a.Add(b.Add(c))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul associative", func(t *testing.T) {
		f := func(x, y, z uint64) bool {
			a, b, c := genElem(x), genElem(y), genElem(z)
			return a.Mul(b).Mul(c) == a.Mul(b.Mul(c))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributive", func(t *testing.T) {
		f := func(x, y, z uint64) bool {
			a, b, c := genElem(x), genElem(y), genElem(z)
			return a.Mul(b.Add(c)) == a.Mul(b).Add(a.Mul(c))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("identities", func(t *testing.T) {
		f := func(x uint64) bool {
			a := genElem(x)
			return a.Add(Zero) == a && a.Mul(One) == a && a.Mul(Zero) == Zero
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("inverse", func(t *testing.T) {
		f := func(x uint64) bool {
			a := genElem(x)
			if a == Zero {
				return true
			}
			return a.Mul(a.Inv()) == One
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("centered roundtrip", func(t *testing.T) {
		f := func(x int64) bool {
			// Restrict to the symmetric representable range.
			x %= int64(Modulus / 2)
			return NewInt64(x).Centered() == x
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := Rand(rng), Rand(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := RandNonZero(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Inv()
	}
}

func BenchmarkBatchInv1024(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]Element, 1024)
	for i := range xs {
		xs[i] = RandNonZero(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp := make([]Element, len(xs))
		copy(tmp, xs)
		BatchInv(tmp)
	}
}

// Centered returns the symmetric representative of e in
// (-(p-1)/2, (p-1)/2], the inverse of NewInt64 on that range.
func (e Element) Centered() int64 {
	if uint64(e) > Modulus/2 {
		return -int64(Modulus - uint64(e))
	}
	return int64(e)
}
