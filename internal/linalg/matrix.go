// Package linalg provides the dense float64 linear algebra the rest of the
// repository needs: matrix/vector arithmetic, Gaussian elimination with
// partial pivoting, Householder QR, and least-squares solving.
//
// Go has no numerical standard library, so this package is the
// MATLAB-substitute substrate (see DESIGN.md §2): the least-squares
// activation fits of package approx, the robust real-valued decoder of
// package reedsolomon, and the neural network of package nn all build on
// it. Sizes in this system are small (tens to low hundreds), so clarity
// and numerical hygiene win over blocking/tiling.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	rows, cols int
	data       []float64 // len rows*cols
}

// NewMatrix returns a zero matrix with the given shape.
// It panics on non-positive dimensions: shapes are programmer-controlled.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixOver returns a rows×cols matrix that aliases data (row-major,
// len rows*cols) instead of copying it: writes through either are seen by
// both. Package nn lays every layer of a network over one flat parameter
// vector this way. It panics on a shape/length mismatch like NewMatrix.
func MatrixOver(rows, cols int, data []float64) *Matrix {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: %d values cannot back shape %dx%d", len(data), rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("linalg: empty rows")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("linalg: row %d has %d cols, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows and Cols report the shape.
func (m *Matrix) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice aliasing the matrix: no copy, and
// writes land in the matrix. Hot loops use it instead of At/Set.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Add returns m + o. Shapes must match.
func (m *Matrix) Add(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return nil, fmt.Errorf("linalg: add shape mismatch %dx%d vs %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += o.data[i]
	}
	return out, nil
}

// Sub returns m - o. Shapes must match.
func (m *Matrix) Sub(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return nil, fmt.Errorf("linalg: sub shape mismatch %dx%d vs %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= o.data[i]
	}
	return out, nil
}

// Scale returns c·m as a new matrix.
func (m *Matrix) Scale(c float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= c
	}
	return out
}

// Mul returns the matrix product m·o.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("linalg: mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := NewMatrix(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			base := k * o.cols
			outBase := i * o.cols
			for j := 0; j < o.cols; j++ {
				out.data[outBase+j] += a * o.data[base+j]
			}
		}
	}
	return out, nil
}

// MulVec returns m·x for a vector x of length Cols.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto writes m·x into dst (length Rows) without allocating; dst
// must not alias x.
func (m *Matrix) MulVecInto(dst, x []float64) error {
	if len(x) != m.cols {
		return fmt.Errorf("linalg: mulvec length %d, want %d", len(x), m.cols)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("linalg: mulvec destination length %d, want %d", len(dst), m.rows)
	}
	for i := range dst {
		var s float64
		for j, v := range m.RowView(i) {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting. It returns an error for singular (or numerically
// singular) systems.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("linalg: solve needs square matrix, got %dx%d", m.rows, m.cols)
	}
	if len(b) != m.rows {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), m.rows)
	}
	f, err := m.factor()
	if err != nil {
		return nil, err
	}
	x := Clone(b)
	f.solveInPlace(x)
	return x, nil
}

// luFactors is a square matrix's Gaussian elimination with partial
// pivoting, recorded so that it can be replayed on any number of
// right-hand sides: the row swap and the multipliers of every column, and
// the upper triangle left behind. The elimination never reads the
// right-hand side, so solveInPlace performs exactly the right-hand-side
// operations of one elimination pass, in the same order — Solve is factor
// plus one replay.
type luFactors struct {
	n     int
	pivot []int     // pivot[col]: the row swapped into col (col itself: none)
	mult  []float64 // mult[col*n+r]: row r's multiplier at column col; 0 skips the row
	u     *Matrix   // the eliminated matrix; only the upper triangle is read
}

// factor eliminates the square matrix m (m is not modified). It returns
// an error for singular (or numerically singular) matrices.
func (m *Matrix) factor() (*luFactors, error) {
	n := m.rows
	a := m.Clone()
	f := &luFactors{n: n, pivot: make([]int, n), mult: make([]float64, n*n), u: a}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in the column.
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
		f.pivot[col] = pivot
		if pivot != col {
			a.swapRows(pivot, col)
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			mf := a.At(r, col) * inv
			f.mult[col*n+r] = mf
			if mf == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c)-mf*a.At(col, c))
			}
		}
	}
	return f, nil
}

// solveInPlace overwrites x (length n) with the solution of A·x = x: the
// recorded swaps and eliminations, then back substitution. It allocates
// nothing and panics on a length mismatch.
func (f *luFactors) solveInPlace(x []float64) {
	n := f.n
	if len(x) != n {
		panic(fmt.Sprintf("linalg: rhs length %d, want %d", len(x), n))
	}
	for col := 0; col < n; col++ {
		if p := f.pivot[col]; p != col {
			x[p], x[col] = x[col], x[p]
		}
		for r := col + 1; r < n; r++ {
			mf := f.mult[col*n+r]
			if mf == 0 {
				continue
			}
			x[r] -= mf * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.u.RowView(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

func (m *Matrix) swapRows(i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}
