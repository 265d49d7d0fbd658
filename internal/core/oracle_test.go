package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/field"
)

// TestDecodedPolynomialIsPlaintextModel ties the verification channel to
// the paper's semantics (Steps 1–3). Honest vehicles upload the broadcast
// model evaluated on their Lagrange-encoded shares, so every slot's word
// is C(H(z)) sampled at the vehicle points, and C(H(ℓ_m)) = C(X_m): the
// polynomial the round's RoundIngest decoded for slot j, evaluated at
// batch node ℓ_m, must be the quantised model evaluated directly on batch
// m's reference row for that slot, with no encoding, bit for bit. Read
// back as a real, that symbol must track the float model within the
// quantisation error. The round runs once honest and once with E planted
// liars, whose verification halves are overwritten; the decode must
// locate exactly them, on every slot.
func TestDecodedPolynomialIsPlaintextModel(t *testing.T) {
	const v, m, degree = 40, 8, 2 // K = 15, E = 12
	ref := refFeatures(t, m*5)
	cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Seed: 17}
	nodes, _ := encodingElements(rand.New(rand.NewSource(cfg.Seed)), m, v)
	for _, liars := range []int{0, 12} {
		t.Run(fmt.Sprintf("liars=%d", liars), func(t *testing.T) {
			s, err := NewScheme(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if liars > s.MaxMalicious() {
				t.Fatalf("%d liars exceed the budget E=%d", liars, s.MaxMalicious())
			}
			shared := polyActivationModel(t, degree, 5)
			ups := roundUploads(t, s, shared, nil)
			rng := rand.New(rand.NewSource(int64(18 + liars)))
			planted := rng.Perm(v)[:liars]
			slices.Sort(planted)
			for _, id := range planted {
				for j := range ups[id][:2*s.slots] {
					ups[id][j] = float64(rng.Uint32())
				}
			}
			if _, err := s.Aggregate(ups); err != nil {
				t.Fatal(err)
			}
			if got := s.SuspectedMalicious(); !slices.Equal(got, planted) {
				t.Fatalf("located %v, planted %v", got, planted)
			}
			// Finalizing the round's ingest again hands back the decode
			// Aggregate finished on (the decoder keeps it until Reset).
			results, errs, _ := s.ingest.inc.Finalize(1)
			scale := math.Ldexp(1, int((2*degree+1)*s.FracBits()))
			row := make([]field.Element, len(ref[0]))
			for j := 0; j < s.slots; j++ {
				if errs[j] != nil {
					t.Fatalf("slot %d: %v", j, errs[j])
				}
				if !slices.Equal(results[j].ErrorPositions, planted) {
					t.Fatalf("slot %d located %v, planted %v", j, results[j].ErrorPositions, planted)
				}
				for b, node := range nodes {
					x := ref[b*s.slots+j]
					if err := s.codec.EncodeVecInto(row, x); err != nil {
						t.Fatal(err)
					}
					got, want := results[j].Poly.Eval(node), s.fpm.Eval(row)
					if got != want {
						t.Fatalf("slot %d batch %d: decoded C(H(ℓ_m)) = %v, model on the raw row %v", j, b, got, want)
					}
					// Estimate maps the activation's (−1, 1) onto (0, 1).
					est, err := shared.Estimate(x)
					if err != nil {
						t.Fatal(err)
					}
					// The symbol's symmetric representative, signed.
					signed := int64(got.Uint64())
					if got.Uint64() > field.Modulus/2 {
						signed = -int64(field.Modulus - got.Uint64())
					}
					if val := float64(signed) / scale; math.Abs(val-(2*est-1)) > 0.01 {
						t.Fatalf("slot %d batch %d: symbol reads %g, float model %g", j, b, val, 2*est-1)
					}
				}
			}
		})
	}
}
