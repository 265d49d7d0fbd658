package reedsolomon

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/poly"
)

// corrupt flips e distinct positions of ys to random wrong values.
func corrupt(rng *rand.Rand, ys []field.Element, e int) []int {
	pos := rng.Perm(len(ys))[:e]
	for _, p := range pos {
		for {
			v := field.Rand(rng)
			if v != ys[p] {
				ys[p] = v
				break
			}
		}
	}
	return pos
}

// decodeWord decodes one received word at the points xs: a Decoder over
// xs, then its Decode.
func decodeWord(xs, ys []field.Element, k int) (*Result, error) {
	d, err := NewDecoder(xs, k)
	if err != nil {
		return nil, err
	}
	return d.Decode(ys)
}

func randomCodeword(rng *rand.Rand, n, k int) (poly.Poly, []field.Element, []field.Element) {
	coeffs := make([]field.Element, k)
	for i := range coeffs {
		coeffs[i] = field.Rand(rng)
	}
	f := poly.New(coeffs...)
	xs := field.RandDistinct(rng, n, nil)
	return f, xs, f.EvalMany(xs)
}

func TestMaxErrors(t *testing.T) {
	tests := []struct{ n, k, want int }{
		{100, 46, 27}, // paper setting: M=16, deg 3 → K=46, V=100 → E=27
		{100, 31, 34}, // degree 2
		{100, 16, 42}, // degree 1
		{10, 10, 0},
		{5, 6, -1},
	}
	for _, tt := range tests {
		if got := MaxErrors(tt.n, tt.k); got != tt.want {
			t.Errorf("MaxErrors(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestDecodeNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, xs, ys := randomCodeword(rng, 20, 5)
	res, err := decodeWord(xs, ys, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poly.Equal(f) {
		t.Fatalf("decoded %v, want %v", res.Poly, f)
	}
	if len(res.ErrorPositions) != 0 {
		t.Errorf("spurious error positions %v", res.ErrorPositions)
	}
}

func TestDecodeCorrectsUpToBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(40)
		k := 1 + rng.Intn(n/2)
		emax := MaxErrors(n, k)
		e := rng.Intn(emax + 1)
		f, xs, ys := randomCodeword(rng, n, k)
		wantPos := corrupt(rng, ys, e)
		res, err := decodeWord(xs, ys, k)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d e=%d): %v", trial, n, k, e, err)
		}
		if !res.Poly.Equal(f) {
			t.Fatalf("trial %d: wrong polynomial", trial)
		}
		if len(res.ErrorPositions) != e {
			t.Fatalf("trial %d: located %d errors, want %d", trial, len(res.ErrorPositions), e)
		}
		want := map[int]bool{}
		for _, p := range wantPos {
			want[p] = true
		}
		for _, p := range res.ErrorPositions {
			if !want[p] {
				t.Fatalf("trial %d: false error position %d", trial, p)
			}
		}
	}
}

func TestDecodeBeyondBudgetFails(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k := 20, 10
	emax := MaxErrors(n, k) // 5
	f, xs, ys := randomCodeword(rng, n, k)
	corrupt(rng, ys, emax+1)
	res, err := decodeWord(xs, ys, k)
	// Either a detected failure, or (rarely) a *different* consistent
	// codeword; it must never silently return the original with wrong
	// error accounting.
	if err == nil {
		if res.Poly.Equal(f) && len(res.ErrorPositions) != emax+1 {
			t.Fatalf("silent mis-decode: %v", res)
		}
	} else if !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

func TestDecodePaperScale(t *testing.T) {
	// The paper's headline configuration: V=100 vehicles, M=16 batches,
	// activation degree 3 → composed degree 45, K=46, E-security 27.
	rng := rand.New(rand.NewSource(4))
	n, k := 100, 46
	f, xs, ys := randomCodeword(rng, n, k)
	corrupt(rng, ys, 27)
	res, err := decodeWord(xs, ys, k)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poly.Equal(f) {
		t.Fatal("failed to correct 27 errors at paper scale")
	}
	if len(res.ErrorPositions) != 27 {
		t.Fatalf("found %d error positions, want 27", len(res.ErrorPositions))
	}
}

func TestDecodeZeroWord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := field.RandDistinct(rng, 8, nil)
	ys := make([]field.Element, 8)
	res, err := decodeWord(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poly.IsZero() {
		t.Fatalf("zero word decoded to %v", res.Poly)
	}
}

func TestDecodeValidation(t *testing.T) {
	xs := []field.Element{field.New(1), field.New(2)}
	ys := []field.Element{field.New(1)}
	if _, err := decodeWord(xs, ys, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := decodeWord(xs, xs, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := decodeWord(xs, xs, 3); err == nil {
		t.Error("n<k accepted")
	}
	dup := []field.Element{field.New(1), field.New(1)}
	if _, err := decodeWord(dup, dup, 1); err == nil {
		t.Error("duplicate points accepted")
	}
}

func BenchmarkDecodeV100K46E27(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	_, xs, ys := randomCodeword(rng, 100, 46)
	corrupt(rng, ys, 27)
	d, err := NewDecoder(xs, 46)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(ys); err != nil {
			b.Fatal(err)
		}
	}
}
