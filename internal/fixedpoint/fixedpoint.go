// Package fixedpoint maps real values into GF(p) and back so that the
// exact Reed–Solomon machinery can protect real-valued computations.
//
// A value x is encoded as round(x · 2^frac) interpreted as a signed
// residue: non-negative integers map to themselves, negatives to p - |v|.
// Decoding uses the symmetric representative (field.Element.Centered).
// The codec tracks the representable range and returns an error on
// overflow instead of wrapping silently, because a wrapped residue decodes
// to an unrelated value and would defeat error correction downstream.
//
// The composed LCC polynomial multiplies up to deg(C)·(M-1) encoded values
// together, so callers must budget fractional bits: the product of t
// fixed-point values carries t·frac fractional bits and must stay below
// (p-1)/2. Scale management helpers are provided for the common cases.
package fixedpoint

import (
	"fmt"
	"math"

	"repro/internal/field"
)

// Codec converts between float64 and GF(p) fixed-point residues.
// The zero value is unusable; construct with New.
type Codec struct {
	frac  uint    // fractional bits
	scale float64 // 2^frac
	// maxAbs is the largest |x| representable without leaving the
	// symmetric range (p-1)/2.
	maxAbs float64
}

// New returns a codec with the given number of fractional bits.
// frac must be in [1, 52] so that the scale is exactly representable in a
// float64 and rounding is well-defined.
func New(frac uint) (*Codec, error) {
	if frac < 1 || frac > 52 {
		return nil, fmt.Errorf("fixedpoint: fractional bits %d out of range [1, 52]", frac)
	}
	scale := math.Ldexp(1, int(frac))
	return &Codec{
		frac:  frac,
		scale: scale,
		//lint:ignore floatpurity codec construction is the float boundary: maxAbs is the real-valued range bound Encode checks against
		maxAbs: float64(field.Modulus/2) / scale,
	}, nil
}

// FracBits returns the number of fractional bits.
func (c *Codec) FracBits() uint { return c.frac }

// Encode quantises x into the field. It returns an error when |x| exceeds
// the representable range or x is not finite.
func (c *Codec) Encode(x float64) (field.Element, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("fixedpoint: cannot encode non-finite value %g", x)
	}
	if math.Abs(x) > c.maxAbs {
		return 0, fmt.Errorf("fixedpoint: value %g exceeds representable range ±%g", x, c.maxAbs)
	}
	return field.NewInt64(int64(math.RoundToEven(x * c.scale))), nil
}

// DecodeScaled recovers a value whose fixed-point scale has been raised to
// times·frac bits by multiplications in the field (e.g. a degree-d
// polynomial evaluation of encoded inputs carries d·frac fractional bits).
func (c *Codec) DecodeScaled(e field.Element, times uint) float64 {
	return float64(e.Centered()) / math.Ldexp(1, int(times*c.frac))
}

// EncodeVec quantises a vector, failing on the first unrepresentable entry.
func (c *Codec) EncodeVec(xs []float64) ([]field.Element, error) {
	out := make([]field.Element, len(xs))
	if err := c.EncodeVecInto(out, xs); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeVecInto is EncodeVec into a caller-owned slice of the same
// length; on error dst holds the entries before the failing one.
func (c *Codec) EncodeVecInto(dst []field.Element, xs []float64) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("fixedpoint: destination length %d, want %d", len(dst), len(xs))
	}
	for i, x := range xs {
		e, err := c.Encode(x)
		if err != nil {
			return fmt.Errorf("fixedpoint: index %d: %w", i, err)
		}
		dst[i] = e
	}
	return nil
}
