package linalg

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorisation A = Q·R of an m×n matrix with
// m ≥ n. Q is represented implicitly by its Householder vectors; R is
// upper triangular.
type QR struct {
	qr   *Matrix   // packed: R above diagonal, Householder vectors below
	rdia []float64 // diagonal of R
}

// NewQR factorises a (it is not modified). It returns an error for
// under-determined shapes (rows < cols).
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR needs rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	// Rank-deficiency tolerance relative to the matrix scale: columns whose
	// remaining norm falls below this after elimination are numerically
	// dependent on earlier columns.
	tol := 1e-12 * (1 + a.FrobeniusNorm())
	for k := 0; k < n; k++ {
		// Householder vector for column k.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm <= tol {
			return nil, fmt.Errorf("linalg: rank-deficient matrix (column %d)", k)
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply transform to remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdia[k] = -norm
	}
	return &QR{qr: qr, rdia: rdia}, nil
}

// Solve returns the least-squares solution x minimising ‖A·x − b‖₂.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), m)
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Qᵀ to y.
	for k := 0; k < n; k++ {
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		if f.rdia[i] == 0 {
			return nil, fmt.Errorf("linalg: zero pivot in R at %d", i)
		}
		x[i] = s / f.rdia[i]
	}
	return x, nil
}

// LeastSquares solves min ‖A·x − b‖₂ via Householder QR — the workhorse of
// the least-square activation approximation (paper §V) and the robust
// real-valued decoder refit.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// RidgeLeastSquares solves min ‖A·x − b‖₂² + λ‖x‖₂² through the normal
// equations (AᵀA + λI)x = Aᵀb. The Tikhonov term keeps the system
// non-singular when columns of A are collinear (e.g. a constant feature
// duplicating the bias column), at the cost of a tiny bias toward small
// coefficients. λ must be positive.
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("linalg: ridge lambda %g must be positive", lambda)
	}
	if len(b) != a.Rows() {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), a.Rows())
	}
	r, err := NewRidge(a, lambda)
	if err != nil {
		return nil, err
	}
	x := make([]float64, a.Cols())
	r.SolveInto(x, b)
	return x, nil
}

// Ridge is RidgeLeastSquares with the design matrix fixed: AᵀA + λI is
// formed and eliminated once, and each right-hand side then costs one
// Aᵀb and one replay of the elimination — the same operations, in the
// same order, as a fresh RidgeLeastSquares call.
type Ridge struct {
	at *Matrix // Aᵀ: Aᵀb is at.MulVecInto, each entry summed over rows in order
	lu *luFactors
}

// NewRidge factorises the normal equations of min ‖A·x − b‖₂² + λ‖x‖₂²
// (a is not retained). It returns an error for λ ≤ 0 or a singular
// system.
func NewRidge(a *Matrix, lambda float64) (*Ridge, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("linalg: ridge lambda %g must be positive", lambda)
	}
	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ata.Rows(); i++ {
		ata.Set(i, i, ata.At(i, i)+lambda)
	}
	lu, err := ata.factor()
	if err != nil {
		return nil, err
	}
	return &Ridge{at: at, lu: lu}, nil
}

// SolveInto writes the ridge solution for right-hand side b (length
// A.Rows()) into x (length A.Cols()) without allocating. It panics on a
// length mismatch.
func (r *Ridge) SolveInto(x, b []float64) {
	if err := r.at.MulVecInto(x, b); err != nil {
		panic(err)
	}
	r.lu.solveInPlace(x)
}

// Vandermonde returns the len(xs)×(deg+1) Vandermonde matrix with rows
// [1, x, x², …, x^deg], the design matrix of polynomial least squares.
func Vandermonde(xs []float64, deg int) *Matrix {
	m := NewMatrix(len(xs), deg+1)
	for i, x := range xs {
		p := 1.0
		for j := 0; j <= deg; j++ {
			m.Set(i, j, p)
			p *= x
		}
	}
	return m
}
