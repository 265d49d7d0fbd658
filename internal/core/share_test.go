package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/field"
)

// TestShareUploadBitIdentical pins the split: over a matrix of shapes,
// every vehicle's Share — built from the arguments alone, as a vehicle
// builds it from Setup — uploads exactly what the fusion side's Scheme
// computes for that vehicle after the same BeginRound, and what
// referenceUpload computes from the share's rows; a full round of Share
// uploads verifies at the Scheme with nobody flagged.
func TestShareUploadBitIdentical(t *testing.T) {
	const slots = 2
	for _, v := range []int{8, 33, 256} {
		for _, m := range []int{2, 8, 16} {
			for degree := 1; degree <= 3; degree++ {
				if degree*(m-1)+1 > v {
					continue // K > V: TestNewShareValidation's side
				}
				for _, frac := range []uint{0, 6} {
					for _, seed := range []int64{3, 1 << 40} {
						cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, FracBits: frac, Seed: seed, Workers: 1}
						t.Run(fmt.Sprintf("V%d/M%d/d%d/frac%d/seed%d", v, m, degree, frac, seed), func(t *testing.T) {
							checkSharesMatchScheme(t, refFeatures(t, m*slots), cfg)
						})
					}
				}
			}
		}
	}
}

func checkSharesMatchScheme(t *testing.T, ref [][]float64, cfg SchemeConfig) {
	scheme, err := NewScheme(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := polyActivationModel(t, cfg.Degree, cfg.Seed)
	local := polyActivationModel(t, cfg.Degree, cfg.Seed+1)
	if err := scheme.BeginRound(shared); err != nil {
		t.Fatal(err)
	}
	uploads := make([][]float64, cfg.NumVehicles)
	for i := range uploads {
		share, err := NewShare(ref, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if share.UploadLen() != scheme.UploadLen() || share.Slots() != scheme.Slots() || share.FracBits() != scheme.FracBits() {
			t.Fatalf("vehicle %d: share shape (%d, %d, %d) differs from the scheme's (%d, %d, %d)", i,
				share.UploadLen(), share.Slots(), share.FracBits(), scheme.UploadLen(), scheme.Slots(), scheme.FracBits())
		}
		if _, err := share.Upload(local); err == nil {
			t.Fatalf("vehicle %d: Upload before BeginRound accepted", i)
		}
		if err := share.BeginRound(shared); err != nil {
			t.Fatal(err)
		}
		got, err := share.Upload(local)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scheme.Upload(i, local)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("vehicle %d: share uploads %d values, scheme %d", i, len(got), len(want))
		}
		ref := referenceUpload(t, &share.evaluator, share.rows, shared, local)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) || math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("vehicle %d value %d: share %v, scheme %v, reference %v", i, j, got[j], want[j], ref[j])
			}
		}
		uploads[i] = got
	}
	if _, err := scheme.Aggregate(uploads); err != nil {
		t.Fatal(err)
	}
	if scheme.DecodeFailures != 0 || scheme.SuspectedMalicious() != nil {
		t.Fatalf("honest Share uploads: %d decode failures, flagged %v", scheme.DecodeFailures, scheme.SuspectedMalicious())
	}
}

// TestNewShareValidation: NewShare refuses what NewScheme refuses, with
// the same error, and additionally an ID the scheme has no point for.
func TestNewShareValidation(t *testing.T) {
	ref := refFeatures(t, 32)
	ragged := append([][]float64(nil), ref...)
	ragged[5] = ragged[5][:3]
	outOfRange := append([][]float64(nil), ref...)
	outOfRange[9] = append([]float64(nil), ref[9]...)
	outOfRange[9][2] = 1e15
	ok := SchemeConfig{NumVehicles: 10, NumBatches: 4, Degree: 1}
	for _, tc := range []struct {
		name string
		ref  [][]float64
		cfg  SchemeConfig
	}{
		{"zero vehicles", ref, SchemeConfig{NumVehicles: 0, NumBatches: 4, Degree: 1}},
		{"one batch", ref, SchemeConfig{NumVehicles: 10, NumBatches: 1, Degree: 1}},
		{"zero degree", ref, SchemeConfig{NumVehicles: 10, NumBatches: 4, Degree: 0}},
		{"K exceeds V", ref, SchemeConfig{NumVehicles: 5, NumBatches: 4, Degree: 3}},
		{"ref not multiple", ref, SchemeConfig{NumVehicles: 10, NumBatches: 5, Degree: 1}},
		{"empty ref", nil, ok},
		{"ragged rows", ragged, ok},
		{"feature out of range", outOfRange, ok},
		{"fraction bits beyond the codec", ref, SchemeConfig{NumVehicles: 10, NumBatches: 4, Degree: 1, FracBits: 63}},
		{"fraction bits beyond the field headroom", ref, SchemeConfig{NumVehicles: 30, NumBatches: 8, Degree: 3, FracBits: 8}},
	} {
		_, want := NewScheme(tc.ref, tc.cfg)
		_, got := NewShare(tc.ref, tc.cfg, 0)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: NewShare says %v, NewScheme says %v", tc.name, got, want)
		}
	}
	for _, id := range []int{-1, ok.NumVehicles} {
		if _, err := NewShare(ref, ok, id); err == nil {
			t.Errorf("vehicle ID %d accepted for V=%d", id, ok.NumVehicles)
		}
	}
	if _, err := NewShare(ref, ok, ok.NumVehicles-1); err != nil {
		t.Errorf("last vehicle refused: %v", err)
	}
}

// TestShareOwnsItsReference: like NewScheme, NewShare copies the reference
// set, so a caller reusing its rows (a transport buffer, the next Setup)
// cannot move a later upload. The upload vector is the share's own and
// every Upload rewrites it, so the first one is copied to compare.
func TestShareOwnsItsReference(t *testing.T) {
	ref := refFeatures(t, 8)
	cfg := SchemeConfig{NumVehicles: 6, NumBatches: 4, Degree: 1, Seed: 5}
	share, err := NewShare(ref, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 1, 9)
	if err := share.BeginRound(model); err != nil {
		t.Fatal(err)
	}
	first, err := share.Upload(model)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(first)
	rng := rand.New(rand.NewSource(1))
	for _, row := range ref {
		for j := range row {
			row[j] = rng.Float64()
		}
	}
	after, err := share.Upload(model)
	if err != nil {
		t.Fatal(err)
	}
	if &after[0] != &first[0] {
		t.Fatal("a second Upload allocated a new vector instead of rewriting the share's")
	}
	for j := range before {
		if math.Float64bits(before[j]) != math.Float64bits(after[j]) {
			t.Fatalf("value %d moved from %v to %v when the caller's rows changed", j, before[j], after[j])
		}
	}
}

// TestVerificationHalvesAreWords pins what a vehicle declares as words on
// the wire (protocol.Upload.Words = 2·S): for random and extreme shared
// models, the first 2·S values of both Share.Upload and Scheme.Upload are
// each exactly float64(uint32(v)), bit for bit — so an honest vehicle's
// verification halves all travel as 4-byte words.
func TestVerificationHalvesAreWords(t *testing.T) {
	cfg := SchemeConfig{NumVehicles: 20, NumBatches: 8, Degree: 2, Seed: 5, Workers: 1}
	ref := refFeatures(t, 8*3)
	scheme, err := NewScheme(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := polyActivationModel(t, cfg.Degree, 1)
	local := polyActivationModel(t, cfg.Degree, 2)
	n := shared.InputSize() + 1 // [w… b]
	// The largest weight and bias quantise accepts: every symbol then
	// wraps the field, so the halves span their whole range.
	limit := float64(field.Modulus/2) / math.Ldexp(1, int(scheme.FracBits()))
	rng := rand.New(rand.NewSource(11))
	model := func(w func(i int) float64, b float64) []float64 {
		p := make([]float64, n)
		for i := range p[:n-1] {
			p[i] = w(i)
		}
		p[n-1] = b
		return p
	}
	sign := func(i int) float64 { return float64(1 - 2*(i%2)) }
	models := []struct {
		name   string
		params []float64
	}{
		{"zero", model(func(int) float64 { return 0 }, 0)},
		{"random", model(func(int) float64 { return rng.NormFloat64() }, rng.NormFloat64())},
		{"random x1e6", model(func(int) float64 { return 1e6 * rng.NormFloat64() }, 1e3*rng.NormFloat64())},
		{"limit", model(func(int) float64 { return limit }, limit/math.Ldexp(1, int(scheme.FracBits())))},
		{"minus limit", model(func(int) float64 { return -limit }, -limit/math.Ldexp(1, int(scheme.FracBits())))},
		{"alternating limit", model(func(i int) float64 { return sign(i) * limit }, 0)},
		{"tiny", model(func(i int) float64 { return sign(i) * 1e-300 }, -1e-300)},
	}
	shares := make([]*Share, cfg.NumVehicles)
	for id := range shares {
		if shares[id], err = NewShare(ref, cfg, id); err != nil {
			t.Fatal(err)
		}
	}
	words := 2 * scheme.Slots()
	check := func(who string, up []float64) {
		t.Helper()
		for j, v := range up[:words] {
			if math.Float64bits(float64(uint32(v))) != math.Float64bits(v) {
				t.Fatalf("%s: verification value %d is %v (bits %016x), not a 32-bit word", who, j, v, math.Float64bits(v))
			}
		}
	}
	for _, m := range models {
		if err := shared.SetParams(m.params); err != nil {
			t.Fatal(err)
		}
		if err := scheme.BeginRound(shared); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for id, share := range shares {
			if err := share.BeginRound(shared); err != nil {
				t.Fatal(err)
			}
			up, err := share.Upload(local)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s: share %d", m.name, id), up)
			if up, err = scheme.Upload(id, local); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s: scheme vehicle %d", m.name, id), up)
		}
	}
}
