package core

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/poly"
)

// fpModel is a single-nonlinear-layer model quantised into GF(p):
// estimation = act(w·x + b) evaluated entirely in fixed-point field
// arithmetic. Because every operation is exact field arithmetic, two
// parties evaluating the same fpModel on the same encoded input produce
// bit-identical results — the property the L-CoFL verification channel
// relies on.
//
// Scale management: weights, inputs and activation coefficients carry
// frac fractional bits each. The pre-activation z = w·x + b carries
// 2·frac (bias pre-scaled accordingly), z^t carries 2t·frac, and each term
// c_t·z^t is padded with unit^{2(deg−t)}, unit the fixed-point one, so
// every term — and therefore the output — carries (2·deg+1)·frac bits.
// The padding is a constant factor of c_t, so quantise multiplies it in
// once and Eval is a plain Horner evaluation. Those (2·deg+1)·frac bits
// must fit the field's headroom, which fracBits(deg) leaves them.
type fpModel struct {
	codec *fixedpoint.Codec
	w     []field.Element
	b     field.Element   // at scale 2·frac
	act   []field.Element // act[t] = c_t·unit^{2(deg−t)}
	deg   int
}

// fracBits is the verification channel's fixed-point resolution at an
// activation degree: the most fractional bits whose (2·deg+1)-fold scale
// leaves ~10 bits of magnitude headroom under the 60-bit symmetric field
// range, capped at 16. The fusion centre and every vehicle derive it from
// the degree alone, so an honest upload is the same field symbol at both.
// From degree 25 on not one bit fits, and fixedpoint.New refuses 0.
func fracBits(degree int) uint {
	return min(uint(50/(2*degree+1)), 16)
}

// quantise (re)loads the model from real-valued weights, reusing the
// element slices when the shape is unchanged — the per-round case. On
// error the model is partly overwritten and must not be evaluated.
func (m *fpModel) quantise(w []float64, b float64, act poly.Real) error {
	codec, deg := m.codec, m.deg
	if act.Degree() > deg {
		return fmt.Errorf("core: activation degree %d exceeds configured %d", act.Degree(), deg)
	}
	if act.Degree() < 1 {
		return fmt.Errorf("core: activation must be a non-constant polynomial")
	}
	if len(m.w) != len(w) {
		m.w = make([]field.Element, len(w))
	}
	if err := codec.EncodeVecInto(m.w, w); err != nil {
		return fmt.Errorf("core: weights: %w", err)
	}
	// The bias joins the pre-activation sum at 2·frac bits.
	var err error
	if m.b, err = codec.Encode(b * math.Ldexp(1, int(codec.FracBits()))); err != nil {
		return fmt.Errorf("core: bias: %w", err)
	}
	if len(m.act) != act.Degree()+1 {
		m.act = make([]field.Element, act.Degree()+1)
	}
	unit := field.New(1 << codec.FracBits())
	for t := range m.act {
		e, err := codec.Encode(act.Coeff(t))
		if err != nil {
			return fmt.Errorf("core: activation coeff %d: %w", t, err)
		}
		// c_t·z^t·unit^{2(deg−t)}: frac + 2t·frac + 2(deg−t)·frac
		// = (2·deg+1)·frac for every t.
		for pad := 0; pad < 2*(deg-t); pad++ {
			e = e.Mul(unit)
		}
		m.act[t] = e
	}
	return nil
}

// Eval computes act(w·x + b) for a quantised input vector. The result
// carries (2·deg+1)·frac fractional bits. Every step is exact GF(p)
// arithmetic, so the lazily reduced dot product and Horner's order give
// the symbol a term-by-term evaluation gives.
func (m *fpModel) Eval(x []field.Element) field.Element {
	z := field.DotAcc(m.w, x).Add(m.b) // scale 2·frac
	out := field.Zero
	for t := len(m.act) - 1; t >= 0; t-- {
		out = out.Mul(z).Add(m.act[t])
	}
	return out
}

// symbolToFloats splits a field element into two exactly-representable
// float64 halves for transport over the float-valued upload vector
// (61-bit symbols do not fit a 53-bit mantissa). Any corruption of either
// half reassembles into a different field element, which the exact
// Reed–Solomon decoder then flags — corruption semantics are preserved.
func symbolToFloats(e field.Element) (hi, lo float64) {
	v := e.Uint64()
	return float64(v >> 32), float64(v & 0xffffffff)
}

// floatsToSymbol reassembles a symbol, deterministically mapping corrupted
// (non-integral or out-of-range) halves to some canonical field element so
// the decoder sees a concrete — wrong — symbol rather than an error.
func floatsToSymbol(hi, lo float64) field.Element {
	toU32 := func(f float64) uint64 {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0x5a5a5a5a // arbitrary garbage marker
		}
		r := math.Abs(math.Round(f))
		return uint64(r) & 0xffffffff
	}
	return field.New(toU32(hi)<<32 | toU32(lo))
}
