package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/nn"
	"repro/internal/poly"
)

// evalReference is fpModel.Eval as it was before the activation
// coefficients carried their padding: a dot product reduced term by term,
// then every term c_t·z^t padded inside the loop with 2(deg−t)
// multiplications by the fixed-point unit, for t = 0..deg. act holds the
// unpadded coefficients codec.Encode(c_t).
func evalReference(codec *fixedpoint.Codec, w []field.Element, b field.Element, act []field.Element, deg int, x []field.Element) field.Element {
	z := field.Dot(w, x).Add(b) // scale 2·frac
	unit := field.New(1 << codec.FracBits())
	out := field.Zero
	zPow := field.One // z^0, dimensionless
	for t := 0; t <= deg; t++ {
		var c field.Element
		if t < len(act) {
			c = act[t]
		}
		// term = c·z^t·unit^{2(deg−t)}: frac + 2t·frac + 2(deg−t)·frac
		// = (2·deg+1)·frac for every t.
		term := c.Mul(zPow)
		for pad := 0; pad < 2*(deg-t); pad++ {
			term = term.Mul(unit)
		}
		out = out.Add(term)
		zPow = zPow.Mul(z)
	}
	return out
}

// quantiseReference quantises a single-layer model the way evalReference
// reads it: weights at frac bits, the bias at 2·frac, and the activation
// coefficients at frac bits with no padding.
func quantiseReference(t testing.TB, codec *fixedpoint.Codec, w []float64, b float64, act poly.Real) (wq []field.Element, bq field.Element, aq []field.Element) {
	t.Helper()
	wq = make([]field.Element, len(w))
	err := codec.EncodeVecInto(wq, w)
	if err != nil {
		t.Fatal(err)
	}
	if bq, err = codec.Encode(b * math.Ldexp(1, int(codec.FracBits()))); err != nil {
		t.Fatal(err)
	}
	aq = make([]field.Element, len(act))
	for i := range aq {
		if aq[i], err = codec.Encode(act[i]); err != nil {
			t.Fatal(err)
		}
	}
	return wq, bq, aq
}

// referenceUpload is an evaluator's upload for the given encoded rows
// computed the slow way: evalReference on the broadcast model for each
// verification symbol, then EstimateClamped row by row for the learning
// channel.
func referenceUpload(t testing.TB, e *evaluator, rows [][]field.Element, shared, local *nn.Network) []float64 {
	t.Helper()
	params, in := shared.ParamsView(), shared.InputSize()
	wq, bq, aq := quantiseReference(t, e.codec, params[:in], params[in], shared.Activation().Poly)
	var out []float64
	for _, row := range rows {
		hi, lo := symbolToFloats(evalReference(e.codec, wq, bq, aq, e.deg, row))
		out = append(out, hi, lo)
	}
	for _, x := range e.refX {
		pi, err := local.EstimateClamped(x)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pi)
	}
	return out
}

// TestFPModelEvalMatchesReference pins Eval — DotAcc and the pre-padded
// coefficients — to evalReference on the same quantised weights, bias and
// coefficients: configured degree 1–3 × the degree's resolution and 6
// fractional bits × every activation degree up to the configured one (a lower
// one leaves the top terms zero), over random share elements, rows
// sprinkled with and made entirely of 0, 1 and p−1, and widths on both
// sides of DotAcc's lazy chunk and four-lane block.
func TestFPModelEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	edges := []field.Element{field.Zero, field.One, field.New(field.Modulus - 1)}
	for deg := 1; deg <= 3; deg++ {
		for _, frac := range []uint{fracBits(deg), 6} {
			codec, err := fixedpoint.New(frac)
			if err != nil {
				t.Fatal(err)
			}
			for actDeg := 1; actDeg <= deg; actDeg++ {
				for _, width := range []int{1, 16, 65, 261} {
					name := fmt.Sprintf("deg%d/frac%d/act%d/width%d", deg, frac, actDeg, width)
					act := make(poly.Real, actDeg+1)
					for i := range act {
						act[i] = 2*rng.Float64() - 1
					}
					w := make([]float64, width)
					for i := range w {
						w[i] = 2*rng.Float64() - 1
					}
					b := 2*rng.Float64() - 1
					m := &fpModel{codec: codec, deg: deg}
					if err := m.quantise(w, b, act); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wq, bq, aq := quantiseReference(t, codec, w, b, act)
					var rows [][]field.Element
					for _, e := range edges {
						row := make([]field.Element, width)
						for j := range row {
							row[j] = e
						}
						rows = append(rows, row)
					}
					for r := 0; r < 40; r++ {
						row := make([]field.Element, width)
						for j := range row {
							row[j] = field.Rand(rng)
							if rng.Intn(4) == 0 {
								row[j] = edges[rng.Intn(len(edges))]
							}
						}
						rows = append(rows, row)
					}
					for r, x := range rows {
						if got, want := m.Eval(x), evalReference(codec, wq, bq, aq, deg, x); got != want {
							t.Fatalf("%s row %d: Eval %v, reference %v", name, r, got, want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkShareUpload times one vehicle's upload at the decode-v64-adv
// workload's shape: V = 64, M = 16, degree 1, 768 reference rows of 16
// features (48 verification slots). It ends by checking the upload
// against referenceUpload.
func BenchmarkShareUpload(b *testing.B) {
	cfg := SchemeConfig{NumVehicles: 64, NumBatches: 16, Degree: 1, Seed: 11}
	share, err := NewShare(refFeatures(b, 768), cfg, 7)
	if err != nil {
		b.Fatal(err)
	}
	shared, local := polyActivationModel(b, 1, 1), polyActivationModel(b, 1, 2)
	if err := share.BeginRound(shared); err != nil {
		b.Fatal(err)
	}
	var up []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if up, err = share.Upload(local); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	want := referenceUpload(b, &share.evaluator, share.rows, shared, local)
	if len(up) != len(want) {
		b.Fatalf("upload has %d values, reference %d", len(up), len(want))
	}
	for i := range want {
		if math.Float64bits(up[i]) != math.Float64bits(want[i]) {
			b.Fatalf("value %d: upload %v, reference %v", i, up[i], want[i])
		}
	}
}
