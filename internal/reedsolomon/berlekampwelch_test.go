package reedsolomon

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/poly"
)

// decodeBW is the classical Berlekamp–Welch decoder the paper names in
// §IV Step 3, kept as the reference oracle for the production Gao path:
// find an error-locator polynomial e(x) (monic, degree E) and a product
// polynomial q(x) (degree ≤ K−1+E) satisfying
//
//	q(x_i) = y_i·e(x_i)   for every received evaluation,
//
// then recover the message polynomial as f = q / e. It is mathematically
// equivalent to Decode and shares no code with it beyond field and
// polynomial arithmetic, so agreement between the two validates both.
//
// The linear system is solved by Gaussian elimination over GF(p); the
// budget scan runs from MaxErrors down to 0 and returns the first budget
// whose attempt succeeds and verifies (a singular system means the actual
// error count is below the attempted one).
func decodeBW(xs, ys []field.Element, k int) (*Result, error) {
	n := len(xs)
	if len(ys) != n {
		return nil, fmt.Errorf("reedsolomon: %d points but %d values", n, len(ys))
	}
	if k < 1 {
		return nil, fmt.Errorf("reedsolomon: message degree bound k=%d must be >= 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("reedsolomon: need at least k=%d evaluations, got %d", k, n)
	}
	if !field.Distinct(xs) {
		return nil, fmt.Errorf("reedsolomon: evaluation points must be distinct")
	}
	maxE := MaxErrors(n, k)
	for e := maxE; e >= 0; e-- {
		f, ok := bwAttempt(xs, ys, k, e)
		if !ok {
			continue
		}
		// The recovered polynomial must disagree with the received word
		// in at most maxE positions.
		var errPos []int
		for i, x := range xs {
			if f.Eval(x) != ys[i] {
				errPos = append(errPos, i)
			}
		}
		if len(errPos) <= maxE {
			return &Result{Poly: f, ErrorPositions: errPos}, nil
		}
	}
	return nil, ErrTooManyErrors
}

// bwAttempt solves the Berlekamp–Welch system for a fixed error budget e.
// Unknowns: q_0..q_{k+e-1} and e_0..e_{e-1} (the locator is monic, so its
// leading coefficient is fixed at 1). Equations, one per received point:
//
//	Σ_j q_j·x^j − y·Σ_j e_j·x^j = y·x^e.
func bwAttempt(xs, ys []field.Element, k, e int) (poly.Poly, bool) {
	n := len(xs)
	cols := k + 2*e // q has k+e coefficients, the locator e
	if cols > n {
		return nil, false
	}
	// Build the augmented matrix [A | b].
	a := make([][]field.Element, n)
	for i := range a {
		row := make([]field.Element, cols+1)
		pw := field.One
		for j := 0; j < k+e; j++ {
			row[j] = pw
			pw = pw.Mul(xs[i])
		}
		pw = field.One
		for j := 0; j < e; j++ {
			row[k+e+j] = ys[i].Mul(pw).Neg()
			pw = pw.Mul(xs[i])
		}
		// pw is now x^e.
		row[cols] = ys[i].Mul(pw)
		a[i] = row
	}
	sol, ok := solveField(a, cols)
	if !ok {
		return nil, false
	}
	q := poly.New(sol[:k+e]...)
	locCoeffs := make([]field.Element, e+1)
	copy(locCoeffs, sol[k+e:])
	locCoeffs[e] = field.One // monic
	loc := poly.New(locCoeffs...)
	f, rem := q.QuoRem(loc)
	if !rem.IsZero() || f.Degree() > k-1 {
		return nil, false
	}
	return f, true
}

// solveField solves an overdetermined linear system over GF(p) given as
// augmented rows (cols unknowns, last column the RHS). It returns false
// when the system is inconsistent or underdetermined in a pivot column —
// callers treat that as "this error budget does not fit".
func solveField(rows [][]field.Element, cols int) ([]field.Element, bool) {
	n := len(rows)
	rank := 0
	for col := 0; col < cols && rank < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := rank; r < n; r++ {
			if rows[r][col] != field.Zero {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			// Free column: fix the unknown at zero by leaving it; the
			// back-substitution below treats missing pivots as zero.
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		inv := rows[rank][col].Inv()
		for c := col; c <= cols; c++ {
			rows[rank][c] = rows[rank][c].Mul(inv)
		}
		for r := 0; r < n; r++ {
			if r == rank || rows[r][col] == field.Zero {
				continue
			}
			// rows[r] += (−factor)·rows[rank] over the active columns.
			neg := rows[r][col].Neg()
			field.MulAddVec(rows[r][col:cols+1], neg, rows[rank][col:cols+1])
		}
		rank++
	}
	// Inconsistency check: a zero row with non-zero RHS.
	for r := rank; r < n; r++ {
		if rows[r][cols] != field.Zero {
			return nil, false
		}
	}
	// Read the solution: pivot columns carry values, free ones are zero.
	sol := make([]field.Element, cols)
	r := 0
	for col := 0; col < cols && r < rank; col++ {
		if rows[r][col] == field.One {
			// Verify this row's pivot really is this column (all earlier
			// entries eliminated).
			isPivot := true
			for c := 0; c < col; c++ {
				if rows[r][c] != field.Zero {
					isPivot = false
					break
				}
			}
			if isPivot {
				sol[col] = rows[r][cols]
				r++
			}
		}
	}
	return sol, true
}

func TestDecodeBWNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f, xs, ys := randomCodeword(rng, 20, 5)
	res, err := decodeBW(xs, ys, 5)
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

func TestDecodeBWCorrectsUpToBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(30)
		k := 1 + rng.Intn(n/2)
		e := rng.Intn(MaxErrors(n, k) + 1)
		f, xs, ys := randomCodeword(rng, n, k)
		wantPos := corrupt(rng, ys, e)
		res, err := decodeBW(xs, ys, k)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d e=%d): %v", trial, n, k, e, err)
		}
		if !res.Poly.Equal(f) {
			t.Fatalf("trial %d: wrong polynomial", trial)
		}
		want := map[int]bool{}
		for _, p := range wantPos {
			want[p] = true
		}
		if len(res.ErrorPositions) != e {
			t.Fatalf("trial %d: located %d errors, want %d", trial, len(res.ErrorPositions), e)
		}
		for _, p := range res.ErrorPositions {
			if !want[p] {
				t.Fatalf("trial %d: false position %d", trial, p)
			}
		}
	}
}

func TestDecodeBWAgreesWithGao(t *testing.T) {
	// The two decoders are independent implementations of the same
	// mathematics; they must agree on every decodable word and both
	// refuse the same undecodable ones.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(40)
		k := 1 + rng.Intn(n/2)
		e := rng.Intn(MaxErrors(n, k) + 2) // occasionally beyond budget
		_, xs, ys := randomCodeword(rng, n, k)
		corrupt(rng, ys, min(e, n))
		gao, gaoErr := decodeWord(xs, ys, k)
		bw, bwErr := decodeBW(xs, ys, k)
		if (gaoErr == nil) != (bwErr == nil) {
			t.Fatalf("trial %d: gao err=%v, bw err=%v", trial, gaoErr, bwErr)
		}
		if gaoErr != nil {
			continue
		}
		if !gao.Poly.Equal(bw.Poly) {
			t.Fatalf("trial %d: decoders disagree", trial)
		}
	}
}

// TestDecodeBWAgreesWithDecodeBatch holds the batch entry to the same
// independent oracle. One adversarial word set — liars shared by every
// slot, one slot with a private error on top that fills the budget, one
// clean slot — is recovered by the shared error location (no per-slot
// Gao decode behind any result), and every slot must equal what
// Berlekamp–Welch decodes from that word on its own.
func TestDecodeBWAgreesWithDecodeBatch(t *testing.T) {
	const n, k, S = 30, 8, 6
	rng := rand.New(rand.NewSource(30))
	xs := field.RandDistinct(rng, n, nil)
	d, err := NewDecoder(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	liars := rng.Perm(n)[:d.MaxErrors()]
	words := liarWords(rng, xs, k, S, func(s int) []int {
		switch s {
		case 1:
			return liars // the shared liars and a private one
		case 4:
			return nil
		}
		return liars[1:]
	})
	results, errs, stats := d.DecodeBatch(words, field.NewSeededSource(1), 2)
	if want := (BatchStats{CombinedOK: true, Recovered: S}); stats != want {
		t.Fatalf("stats %+v, want %+v: the shared location did not produce every slot", stats, want)
	}
	for s, ys := range words {
		want, err := decodeBW(xs, ys, k)
		if err != nil || errs[s] != nil {
			t.Fatalf("slot %d: batch err=%v, bw err=%v", s, errs[s], err)
		}
		if !results[s].Poly.Equal(want.Poly) || !slices.Equal(results[s].ErrorPositions, want.ErrorPositions) {
			t.Fatalf("slot %d: batch %v at %v, bw %v at %v", s,
				results[s].Poly, results[s].ErrorPositions, want.Poly, want.ErrorPositions)
		}
	}
}

func TestDecodeBWPaperScale(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n, k := 100, 46
	f, xs, ys := randomCodeword(rng, n, k)
	corrupt(rng, ys, 27)
	res, err := decodeBW(xs, ys, k)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poly.Equal(f) {
		t.Fatal("failed to correct 27 errors at paper scale")
	}
}

func TestDecodeBWBeyondBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n, k := 16, 8
	f, xs, ys := randomCodeword(rng, n, k)
	corrupt(rng, ys, MaxErrors(n, k)+2)
	res, err := decodeBW(xs, ys, k)
	if err == nil && res.Poly.Equal(f) && len(res.ErrorPositions) > MaxErrors(n, k) {
		t.Fatal("silent mis-decode")
	}
}

func TestDecodeBWValidation(t *testing.T) {
	xs := []field.Element{field.New(1), field.New(2)}
	if _, err := decodeBW(xs, xs[:1], 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := decodeBW(xs, xs, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := decodeBW(xs, xs, 3); err == nil {
		t.Error("n<k accepted")
	}
	dup := []field.Element{field.New(1), field.New(1)}
	if _, err := decodeBW(dup, dup, 1); err == nil {
		t.Error("duplicate points accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkDecodeBWvsGao(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	_, xs, ys := randomCodeword(rng, 100, 46)
	corrupt(rng, ys, 27)
	d, err := NewDecoder(xs, 46)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gao", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Decode(ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("berlekamp-welch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := decodeBW(xs, ys, 46); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestDecoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	_, xs, _ := randomCodeword(rng, 40, 10)
	dec, err := NewDecoder(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dec.MaxErrors() != 15 {
		t.Errorf("MaxErrors = %d", dec.MaxErrors())
	}
	for trial := 0; trial < 20; trial++ {
		f, _, ys := randomCodewordAt(rng, xs, 10)
		e := rng.Intn(dec.MaxErrors() + 1)
		corrupt(rng, ys, e)
		got, err := dec.Decode(ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Poly.Equal(f) {
			t.Fatalf("trial %d: wrong polynomial", trial)
		}
		if len(got.ErrorPositions) != e {
			t.Fatalf("trial %d: %d errors, want %d", trial, len(got.ErrorPositions), e)
		}
	}
}

// randomCodewordAt evaluates a fresh random message at fixed points.
func randomCodewordAt(rng *rand.Rand, xs []field.Element, k int) (poly.Poly, []field.Element, []field.Element) {
	coeffs := make([]field.Element, k)
	for i := range coeffs {
		coeffs[i] = field.Rand(rng)
	}
	f := poly.New(coeffs...)
	return f, xs, f.EvalMany(xs)
}

func TestNewDecoderValidation(t *testing.T) {
	xs := []field.Element{field.New(1), field.New(2)}
	if _, err := NewDecoder(xs, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewDecoder(xs, 3); err == nil {
		t.Error("n<k accepted")
	}
	dup := []field.Element{field.New(1), field.New(1)}
	if _, err := NewDecoder(dup, 1); err == nil {
		t.Error("duplicate points accepted")
	}
	d, err := NewDecoder(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(xs[:1]); err == nil {
		t.Error("short word accepted")
	}
}
