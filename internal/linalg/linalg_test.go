package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Errorf("FromRows wrong layout: %v", m)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty rows accepted")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0x0")
		}
	}()
	NewMatrix(0, 0)
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", mt.Rows(), mt.Cols())
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Errorf("T values wrong: %v", mt)
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	got, err := a.Mul(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I != A at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v", got)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestViewsAndMulVecInto: the aliasing constructor and row view share
// storage with their source, and MulVecInto is MulVec into a caller's
// slice with both lengths checked.
func TestViewsAndMulVecInto(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := MatrixOver(2, 3, data)
	if m.At(1, 0) != 4 {
		t.Errorf("MatrixOver layout: At(1,0) = %g", m.At(1, 0))
	}
	m.RowView(1)[2] = 60
	if data[5] != 60 || m.At(1, 2) != 60 {
		t.Error("RowView write did not reach the backing slice")
	}
	data[0] = 10
	if m.At(0, 0) != 10 {
		t.Error("MatrixOver copied its data")
	}
	x := []float64{1, 0, 1}
	want, err := m.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 2)
	if err := m.MulVecInto(dst, x); err != nil {
		t.Fatal(err)
	}
	if dst[0] != want[0] || dst[1] != want[1] || dst[0] != 13 || dst[1] != 64 {
		t.Errorf("MulVecInto = %v, MulVec = %v", dst, want)
	}
	if m.MulVecInto(dst[:1], x) == nil || m.MulVecInto(dst, x[:2]) == nil {
		t.Error("length mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MatrixOver accepted data of the wrong length")
		}
	}()
	MatrixOver(2, 2, data)
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{4, 3}, {2, 1}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0, 0) != 5 || sum.At(1, 1) != 5 {
		t.Errorf("Add = %v", sum)
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if diff.At(1, 0) != 3 {
		t.Errorf("Sub = %v", diff)
	}
	if got := a.Scale(2).At(1, 1); got != 8 {
		t.Errorf("Scale = %g", got)
	}
	if _, err := a.Add(NewMatrix(3, 3)); err == nil {
		t.Error("Add shape mismatch accepted")
	}
	if _, err := a.Sub(NewMatrix(3, 3)); err == nil {
		t.Error("Sub shape mismatch accepted")
	}
}

func TestSolve(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := a.Solve([]float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 → x=4/5, y=7/5
	if !near(x[0], 0.8, 1e-12) || !near(x[1], 1.4, 1e-12) {
		t.Errorf("Solve = %v", x)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		a := randomMatrix(rng, n, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Solve(b)
		if err != nil {
			continue // singular random draw, acceptable to skip
		}
		for i := range want {
			if !near(got[i], want[i], 1e-6*(1+math.Abs(want[i]))) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := a.Solve([]float64{1, 2}); err == nil {
		t.Error("singular matrix solved")
	}
	if _, err := NewMatrix(2, 3).Solve([]float64{1, 2}); err == nil {
		t.Error("non-square solve accepted")
	}
	if _, err := Identity(2).Solve([]float64{1}); err == nil {
		t.Error("bad rhs length accepted")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := a.Solve([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("Solve = %v", x)
	}
}

// referenceSolve is Matrix.Solve as it stood before the elimination was
// split into factor and solveInPlace: swaps and row updates applied to the
// matrix and the right-hand side in one pass. Kept as the oracle.
func referenceSolve(m *Matrix, b []float64) ([]float64, error) {
	n := m.rows
	a := m.Clone()
	x := Clone(b)
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if pivot != col {
			a.swapRows(pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// TestFactorReplayMatchesSolve: one factorisation replayed on many
// right-hand sides lands on the bits of the one-pass elimination it
// replaced, for random systems (pivoting everywhere), sparse ones (zero
// multipliers skipped) and singular ones (same error); Ridge likewise
// against the normal equations formed and solved afresh.
func TestFactorReplayMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(17)
		a := randomMatrix(rng, n, n)
		if trial%3 == 1 { // sparse: many exact-zero multipliers
			for i := range a.data {
				if rng.Intn(3) > 0 {
					a.data[i] = 0
				}
			}
		}
		if trial%10 == 9 && n > 1 { // singular: a repeated row
			copy(a.RowView(n-1), a.RowView(0))
		}
		f, ferr := a.factor()
		for k := 0; k < 4; k++ {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want, werr := referenceSolve(a, b)
			if (ferr == nil) != (werr == nil) {
				t.Fatalf("trial %d: factor error %v, reference %v", trial, ferr, werr)
			}
			if werr != nil {
				if ferr.Error() != werr.Error() {
					t.Fatalf("trial %d: factor error %q, reference %q", trial, ferr, werr)
				}
				continue
			}
			got := Clone(b)
			f.solveInPlace(got)
			viaSolve, err := a.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(viaSolve[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d rhs %d: x[%d] replay %v, Solve %v, reference %v", trial, k, i, got[i], viaSolve[i], want[i])
				}
			}
		}
	}

	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(80), 1+rng.Intn(17)
		a := randomMatrix(rng, rows, cols)
		lambda := 1e-3 * float64(rows)
		r, err := NewRidge(a, lambda)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			b := make([]float64, rows)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			at := a.T()
			ata, _ := at.Mul(a)
			for i := 0; i < cols; i++ {
				ata.Set(i, i, ata.At(i, i)+lambda)
			}
			atb, _ := at.MulVec(b)
			want, err := referenceSolve(ata, atb)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, cols)
			r.SolveInto(got, b)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("ridge trial %d rhs %d: x[%d] = %v, reference %v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: recover exact polynomial coefficients.
	xs := []float64{-2, -1, 0, 1, 2, 3}
	a := Vandermonde(xs, 2)
	truth := []float64{1, -0.5, 0.25}
	b, err := a.MulVec(truth)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if !near(got[i], truth[i], 1e-10) {
			t.Errorf("coef %d = %g, want %g", i, got[i], truth[i])
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The optimal residual must be orthogonal to the column space: Aᵀr = 0.
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 30, 5)
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	r := VecSub(b, ax)
	atr, _ := a.T().MulVec(r)
	if NormInf(atr) > 1e-9 {
		t.Errorf("Aᵀr = %v, want ~0", atr)
	}
}

func TestQRValidation(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); err == nil {
		t.Error("underdetermined QR accepted")
	}
	// Rank-deficient: duplicate columns.
	a, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := NewQR(a); err == nil {
		t.Error("rank-deficient QR accepted")
	}
	f, err := NewQR(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("bad rhs length accepted")
	}
}

func TestVandermonde(t *testing.T) {
	v := Vandermonde([]float64{2, 3}, 2)
	want := [][]float64{{1, 2, 4}, {1, 3, 9}}
	for i := range want {
		for j := range want[i] {
			if v.At(i, j) != want[i][j] {
				t.Errorf("V[%d][%d] = %g, want %g", i, j, v.At(i, j), want[i][j])
			}
		}
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := VecAdd(a, b); got[2] != 9 {
		t.Errorf("VecAdd = %v", got)
	}
	if got := VecSub(b, a); got[0] != 3 {
		t.Errorf("VecSub = %v", got)
	}
	if got := VecScale(2, a); got[1] != 4 {
		t.Errorf("VecScale = %v", got)
	}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %g", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %g", got)
	}
	if got := NormInf([]float64{-7, 2}); got != 7 {
		t.Errorf("NormInf = %g", got)
	}
	if got := Mean(a); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone aliases input")
	}
	ip := Clone(a)
	VecAddInPlace(ip, b)
	if ip[0] != 5 {
		t.Errorf("VecAddInPlace = %v", ip)
	}
	ax := Clone(a)
	AXPYInPlace(ax, 2, b)
	if ax[0] != 9 {
		t.Errorf("AXPYInPlace = %v", ax)
	}
}

func TestVectorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestPropertyTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(_ uint8) bool {
		m := randomMatrix(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		tt := m.T().T()
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if tt.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(_ uint8) bool {
		n := 1 + rng.Intn(5)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		c := randomMatrix(rng, n, n)
		bc, _ := b.Add(c)
		left, _ := a.Mul(bc)
		ab, _ := a.Mul(b)
		ac, _ := a.Mul(c)
		right, _ := ab.Add(ac)
		d, _ := left.Sub(right)
		return d.FrobeniusNorm() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); got != 5 {
		t.Errorf("FrobeniusNorm = %g", got)
	}
}

func BenchmarkSolve64(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 64, 64)
	rhs := make([]float64, 64)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeastSquares100x8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 100, 8)
	rhs := make([]float64, 100)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRidgeLeastSquares(t *testing.T) {
	// Collinear columns: plain QR fails, ridge succeeds and keeps the
	// coefficients small.
	a, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Error("plain LS solved a rank-deficient system")
	}
	x, err := RidgeLeastSquares(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric problem → symmetric solution near [0.5, 0.5].
	if !near(x[0], x[1], 1e-9) || !near(x[0], 0.5, 1e-3) {
		t.Errorf("ridge solution = %v", x)
	}
	if _, err := RidgeLeastSquares(a, []float64{1, 2, 3}, 0); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := RidgeLeastSquares(a, []float64{1}, 1e-6); err == nil {
		t.Error("bad rhs length accepted")
	}
}

func TestRidgeMatchesLSWhenWellPosed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomMatrix(rng, 20, 4)
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ls, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := RidgeLeastSquares(a, b, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ls {
		if !near(ls[i], ridge[i], 1e-6) {
			t.Errorf("coef %d: LS %g vs ridge %g", i, ls[i], ridge[i])
		}
	}
}

func TestRowColString(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Errorf("Row = %v", r)
	}
	r[0] = 99
	if m.At(1, 0) == 99 {
		t.Error("Row aliases matrix")
	}
	c := m.Col(0)
	if c[0] != 1 || c[1] != 3 {
		t.Errorf("Col = %v", c)
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}
