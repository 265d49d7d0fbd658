package linalg

import "fmt"

// VecAddInPlace adds b into a.
func VecAddInPlace(a, b []float64) {
	mustSameLen("VecAddInPlace", a, b)
	for i := range a {
		a[i] += b[i]
	}
}

// AXPYInPlace computes a += c·b.
func AXPYInPlace(a []float64, c float64, b []float64) {
	mustSameLen("AXPYInPlace", a, b)
	for i := range a {
		a[i] += c * b[i]
	}
}

// Clone returns an independent copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

func mustSameLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: %s length mismatch %d != %d", op, len(a), len(b)))
	}
}
