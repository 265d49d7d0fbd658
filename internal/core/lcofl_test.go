package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/field"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/reedsolomon"
	"repro/internal/traffic"
)

// polyActivationModel builds a single-layer network with a least-squares
// polynomial activation of the given degree, as L-CoFL prescribes.
func polyActivationModel(t testing.TB, degree int, seed int64) *nn.Network {
	t.Helper()
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, degree)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.New(nn.Config{
		LayerSizes: []int{traffic.NumFeatures, 1},
		Activation: approx.FromPolynomial("ls", p),
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func refFeatures(t testing.TB, rows int) [][]float64 {
	t.Helper()
	ds, err := traffic.Generate(traffic.GenConfig{Rows: rows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Features()
}

func TestNewSchemeValidation(t *testing.T) {
	ref := refFeatures(t, 32)
	cases := []struct {
		name string
		cfg  SchemeConfig
		ref  [][]float64
	}{
		{"zero vehicles", SchemeConfig{NumVehicles: 0, NumBatches: 4, Degree: 1}, ref},
		{"one batch", SchemeConfig{NumVehicles: 10, NumBatches: 1, Degree: 1}, ref},
		{"zero degree", SchemeConfig{NumVehicles: 10, NumBatches: 4, Degree: 0}, ref},
		{"ref not multiple", SchemeConfig{NumVehicles: 10, NumBatches: 5, Degree: 1}, ref},
		{"empty ref", SchemeConfig{NumVehicles: 10, NumBatches: 4, Degree: 1}, nil},
		{"K exceeds V", SchemeConfig{NumVehicles: 5, NumBatches: 4, Degree: 3}, ref},
		// Degree 3 carries (2·3+1)·frac fractional bits: frac 8 needs 56 > 50.
		{"frac beyond headroom", SchemeConfig{NumVehicles: 30, NumBatches: 8, Degree: 3, FracBits: 8}, ref},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewScheme(tc.ref, tc.cfg); err == nil {
				t.Errorf("accepted invalid config %+v", tc.cfg)
			}
		})
	}
}

func TestSchemeThresholdArithmetic(t *testing.T) {
	// The paper-scale sanity check from DESIGN.md: V=100, M=16.
	ref := refFeatures(t, 16*4)
	tests := []struct{ degree, wantK, wantE int }{
		{1, 16, 42},
		{2, 31, 34},
		{3, 46, 27},
	}
	for _, tt := range tests {
		s, err := NewScheme(ref, SchemeConfig{NumVehicles: 100, NumBatches: 16, Degree: tt.degree})
		if err != nil {
			t.Fatal(err)
		}
		if s.RecoverThreshold() != tt.wantK {
			t.Errorf("degree %d: K = %d, want %d", tt.degree, s.RecoverThreshold(), tt.wantK)
		}
		if s.MaxMalicious() != tt.wantE {
			t.Errorf("degree %d: E = %d, want %d", tt.degree, s.MaxMalicious(), tt.wantE)
		}
	}
}

func TestSchemeUploadLenAndFracBits(t *testing.T) {
	ref := refFeatures(t, 16*2)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 100, NumBatches: 16, Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.UploadLen(); got != 2*s.Slots()+len(ref) {
		t.Errorf("UploadLen = %d", got)
	}
	// Degree 1 allows (2·1+1)·frac ≤ 50 → frac 16 (the cap).
	if got := s.FracBits(); got != 16 {
		t.Errorf("default FracBits = %d, want 16", got)
	}
	s3, err := NewScheme(ref, SchemeConfig{NumVehicles: 100, NumBatches: 16, Degree: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.FracBits(); got != 7 {
		t.Errorf("degree-3 default FracBits = %d, want 7", got)
	}
}

// roundUploads runs BeginRound with the shared model and collects every
// vehicle's upload using the given local models (shared model reused when
// locals is nil).
func roundUploads(t *testing.T, s *Scheme, shared *nn.Network, locals []*nn.Network) [][]float64 {
	t.Helper()
	if err := s.BeginRound(shared); err != nil {
		t.Fatal(err)
	}
	ups := make([][]float64, s.cfg.NumVehicles)
	for i := range ups {
		local := shared
		if locals != nil {
			local = locals[i]
		}
		up, err := s.Upload(i, local)
		if err != nil {
			t.Fatal(err)
		}
		ups[i] = up
	}
	return ups
}

func TestSchemeHonestRoundTrip(t *testing.T) {
	// All-honest: every vehicle is verified and targets equal the mean of
	// the local estimations — here exactly the shared model's estimation.
	ref := refFeatures(t, 16*3)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 60, NumBatches: 16, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 2, 3)
	targets, err := s.Aggregate(roundUploads(t, s, model, nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeFailures != 0 {
		t.Fatalf("%d decode failures on honest uploads", s.DecodeFailures)
	}
	if got := s.SuspectedMalicious(); len(got) != 0 {
		t.Fatalf("honest round flagged %v", got)
	}
	for j, x := range ref {
		want, err := model.EstimateClamped(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(targets[j]-want) > 1e-12 {
			t.Fatalf("target[%d] = %g, want %g", j, targets[j], want)
		}
	}
}

func TestSchemeCorrectsMaliciousUploads(t *testing.T) {
	ref := refFeatures(t, 16*3)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 100, NumBatches: 16, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 2, 4)
	ups := roundUploads(t, s, model, nil)

	// Corrupt 30 vehicles wholesale (budget is 34 at degree 2).
	rng := rand.New(rand.NewSource(5))
	bad := rng.Perm(100)[:30]
	for _, id := range bad {
		for j := range ups[id] {
			ups[id][j] = 5 + rng.Float64()*10
		}
	}
	targets, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeFailures != 0 {
		t.Fatalf("%d decode failures within budget", s.DecodeFailures)
	}
	// Targets must equal the honest estimation exactly: the malicious
	// vehicles are identified on the verification channel and their
	// learning estimations never enter the average.
	for j, x := range ref {
		want, err := model.EstimateClamped(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(targets[j]-want) > 1e-12 {
			t.Fatalf("target[%d] = %g, want %g (malicious influence leaked)", j, targets[j], want)
		}
	}
	// The decoder must finger exactly the planted vehicles.
	suspected := map[int]bool{}
	for _, id := range s.SuspectedMalicious() {
		suspected[id] = true
	}
	for _, id := range bad {
		if !suspected[id] {
			t.Errorf("malicious vehicle %d not flagged", id)
		}
	}
	if len(suspected) != len(bad) {
		t.Errorf("flagged %d vehicles, want %d", len(suspected), len(bad))
	}
}

func TestSchemeHeterogeneousLocals(t *testing.T) {
	// Locally-trained models differ between vehicles; the verification
	// channel still uses the common shared model, so decoding stays exact
	// and targets equal the mean of the heterogeneous local estimations.
	ref := refFeatures(t, 8*2)
	const v = 30
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: v, NumBatches: 8, Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared := polyActivationModel(t, 1, 8)
	locals := make([]*nn.Network, v)
	rng := rand.New(rand.NewSource(9))
	for i := range locals {
		locals[i] = shared.Clone()
		params := locals[i].Params()
		for p := range params {
			params[p] += 0.3 * rng.NormFloat64() // strong heterogeneity
		}
		if err := locals[i].SetParams(params); err != nil {
			t.Fatal(err)
		}
	}
	targets, err := s.Aggregate(roundUploads(t, s, shared, locals))
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeFailures != 0 {
		t.Fatalf("%d decode failures despite exact verification channel", s.DecodeFailures)
	}
	for j, x := range ref {
		var want float64
		for _, l := range locals {
			pi, err := l.EstimateClamped(x)
			if err != nil {
				t.Fatal(err)
			}
			want += pi / float64(v)
		}
		if math.Abs(targets[j]-want) > 1e-12 {
			t.Fatalf("target[%d] = %g, want mean %g", j, targets[j], want)
		}
	}
}

func TestSchemeBeyondBudgetFallsBack(t *testing.T) {
	ref := refFeatures(t, 8*2)
	// V=20, M=8, degree 2 → K=15, E budget = 2.
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 20, NumBatches: 8, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxMalicious() != 2 {
		t.Fatalf("budget = %d, want 2", s.MaxMalicious())
	}
	model := polyActivationModel(t, 2, 6)
	ups := roundUploads(t, s, model, nil)
	rng := rand.New(rand.NewSource(7))
	for _, id := range rng.Perm(20)[:9] { // way beyond budget
		for j := range ups[id] {
			ups[id][j] = 50 + rng.Float64()
		}
	}
	targets, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeFailures == 0 {
		t.Error("expected decode failures beyond the budget")
	}
	// The median fallback must stay in the honest range: 11 of 20 honest.
	for j, x := range ref {
		want, err := model.EstimateClamped(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(targets[j]-want) > 0.5 {
			t.Errorf("fallback target[%d] = %g, honest %g", j, targets[j], want)
		}
	}
}

func TestSchemeDroppedUploads(t *testing.T) {
	ref := refFeatures(t, 8*2)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 30, NumBatches: 8, Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 1, 8)
	ups := roundUploads(t, s, model, nil)
	// 10 vehicles are absent: K=8, the 20 present vehicles still verify
	// and aggregate. A NaN is not an absence: one vehicle sends it as half
	// of a verification symbol and is located, another as a learning
	// estimate and breaks the range rule; both are excluded.
	for i := 0; i < 10; i++ {
		ups[i] = nil
	}
	ups[15][0] = math.NaN()
	ups[16][2*s.Slots()+1] = math.NaN()
	targets, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeFailures != 0 {
		t.Fatalf("%d decode failures with 20 present and K=8", s.DecodeFailures)
	}
	if got := s.SuspectedMalicious(); !slices.Equal(got, []int{15, 16}) {
		t.Fatalf("flagged %v, want [15 16]", got)
	}
	for j, x := range ref {
		want, err := model.EstimateClamped(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(targets[j]-want) > 1e-12 {
			t.Fatalf("target[%d] = %g, want %g", j, targets[j], want)
		}
	}
}

func TestSchemeAllSlotsUndecodable(t *testing.T) {
	ref := refFeatures(t, 8)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 16, NumBatches: 8, Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 2, 9)
	ups := roundUploads(t, s, model, nil)
	for i := 2; i < 16; i++ { // only 2 survivors < K=15
		ups[i] = nil
	}
	targets, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeFailures != s.Slots() {
		t.Fatalf("DecodeFailures = %d, want %d", s.DecodeFailures, s.Slots())
	}
	// Fallback median over the two surviving honest vehicles.
	for j, x := range ref {
		want, err := model.EstimateClamped(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(targets[j]-want) > 1e-12 {
			t.Fatalf("fallback target[%d] = %g, want %g", j, targets[j], want)
		}
	}
}

func TestSchemeUploadValidation(t *testing.T) {
	ref := refFeatures(t, 8)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 10, NumBatches: 8, Degree: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, 1, 10)
	if _, err := s.Upload(0, model); err == nil {
		t.Error("Upload before BeginRound accepted")
	}
	if err := s.BeginRound(nil); err == nil {
		t.Error("nil shared model accepted")
	}
	// nn.New refuses every shape but [in, 1] (nn.TestNewValidation); the
	// scheme checks the width against its reference set.
	wrong, err := nn.New(nn.Config{LayerSizes: []int{traffic.NumFeatures + 1, 1}, Activation: model.Activation(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginRound(wrong); err == nil {
		t.Error("model wider than the reference features accepted")
	}
	if err := s.BeginRound(polyActivationModel(t, 2, 10)); err == nil {
		t.Error("activation above the configured degree accepted")
	}
	if err := s.BeginRound(model); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Upload(-1, model); err == nil {
		t.Error("negative ID accepted")
	}
	if _, err := s.Upload(10, model); err == nil {
		t.Error("out-of-range ID accepted")
	}
	if _, err := s.Aggregate(make([][]float64, 3)); err == nil {
		t.Error("wrong upload count accepted")
	}
	bad := make([][]float64, 10)
	bad[0] = []float64{1, 2, 3} // wrong upload width
	if _, err := s.Aggregate(bad); err == nil {
		t.Error("wrong upload width accepted")
	}
}

func TestSchemeInFullSystem(t *testing.T) {
	// End-to-end: L-CoFL plugged into the fl round loop with 30%
	// malicious vehicles must keep learning — the Fig. 4 scenario. The
	// scheme rewrites one targets buffer every round, so each round's
	// RoundStats must hold its own copy: the previous round's targets
	// must read the same after the next round.
	ds, err := traffic.Generate(traffic.GenConfig{Rows: 2500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 12)
	if err != nil {
		t.Fatal(err)
	}
	refAll := refFeatures(t, 16*8)
	const vehicles = 100
	parts, err := train.PartitionIID(vehicles, 13)
	if err != nil {
		t.Fatal(err)
	}
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		InputSize:     traffic.NumFeatures,
		LocalEpochs:   5,
		LocalRate:     0.2,
		DistillEpochs: 30,
		DistillRate:   0.2,
		ServerStep:    0.5,
		Seed:          14,
	}
	mkSystem := func() *fl.System {
		sys, err := fl.NewSystem(cfg, parts, refAll, approx.FromPolynomial("ls-1", p))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sysCoded, sysHonest, sysPlainAttacked := mkSystem(), mkSystem(), mkSystem()
	scheme, err := NewScheme(refAll, SchemeConfig{
		NumVehicles: vehicles, NumBatches: 16, Degree: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plainH, err := fl.NewPlainScheme(refAll)
	if err != nil {
		t.Fatal(err)
	}
	plainA, err := fl.NewPlainScheme(refAll)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, vehicles, 0.3)
	const rounds = 12
	var accCoded, accHonest, accAttacked float64
	var prev *fl.RoundStats
	var prevTargets []float64
	for r := 0; r < rounds; r++ {
		stats, err := sysCoded.RunRound(scheme, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !sameBits(prev.Targets, prevTargets) {
			t.Fatalf("round %d rewrote round %d's RoundStats.Targets", r, r-1)
		}
		prev, prevTargets = stats, slices.Clone(stats.Targets)
		if scheme.DecodeFailures != 0 {
			t.Fatalf("round %d: %d decode failures", r, scheme.DecodeFailures)
		}
		if got := len(scheme.SuspectedMalicious()); got != plan.Count() {
			t.Fatalf("round %d: flagged %d vehicles, want %d", r, got, plan.Count())
		}
		if _, err := sysHonest.RunRound(plainH, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sysPlainAttacked.RunRound(plainA, plan, nil); err != nil {
			t.Fatal(err)
		}
		if r >= rounds-5 {
			a, err := sysCoded.Accuracy(test.Samples)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sysHonest.Accuracy(test.Samples)
			if err != nil {
				t.Fatal(err)
			}
			c, err := sysPlainAttacked.Accuracy(test.Samples)
			if err != nil {
				t.Fatal(err)
			}
			accCoded += a / 5
			accHonest += b / 5
			accAttacked += c / 5
		}
	}
	// The paper's Fig. 5 claim: L-CoFL under attack tracks the ideal
	// (accurate) FL model, while plain FL is poisoned.
	if rel := math.Abs(accCoded - accHonest); rel > 0.08 {
		t.Errorf("L-CoFL relative error %.3f vs ideal (coded %.3f, honest %.3f), want <= 0.08",
			rel, accCoded, accHonest)
	}
	if accCoded < accAttacked+0.1 {
		t.Errorf("L-CoFL (%.3f) does not clearly beat attacked plain FL (%.3f)", accCoded, accAttacked)
	}
}

func TestCostModel(t *testing.T) {
	c := Cost{V: 100, M: 16, Degree: 3, ApproxPoints: 21, Errors: 10}
	if c.RecoverThreshold() != 46 {
		t.Errorf("K = %d", c.RecoverThreshold())
	}
	if got := c.EncodingPerVehicle(); got != 256 {
		t.Errorf("encoding = %g", got)
	}
	if got := c.ApproximationPerVehicle(); got != 21*9 {
		t.Errorf("approx = %g", got)
	}
	// Decoding cost grows with errors (two evaluations each).
	lo := Cost{V: 100, M: 16, Degree: 3, ApproxPoints: 21, Errors: 0}.Decoding()
	hi := c.Decoding()
	if hi <= lo {
		t.Errorf("decoding cost %g did not grow with errors (base %g)", hi, lo)
	}
	// Cap at V³.
	huge := Cost{V: 100, M: 16, Degree: 3, ApproxPoints: 21, Errors: 1000}
	if got := huge.Decoding(); got != 1e6 {
		t.Errorf("capped decoding = %g, want 1e6", got)
	}
	if c.Total() <= 0 || c.PerDataPiece() != c.Total()/16 {
		t.Error("total/per-piece accounting inconsistent")
	}
	// Fig. 9 shape: cost increases with degree and with malicious rate.
	prev := 0.0
	for d := 1; d <= 4; d++ {
		cur := Cost{V: 100, M: 16, Degree: d, ApproxPoints: 21, Errors: 10}.PerDataPiece()
		if cur <= prev {
			t.Errorf("cost at degree %d (%g) not above degree %d (%g)", d, cur, d-1, prev)
		}
		prev = cur
	}
}

func mustPlan(t *testing.T, v int, frac float64) *adversary.Plan {
	t.Helper()
	p, err := adversary.NewPlan(v, frac, adversary.ConstantLie{Value: 5}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPropertySchemeIdentifiesAnyMaliciousSubset(t *testing.T) {
	// For ANY malicious subset within the eq. 6 budget and ANY gross
	// corruption values, the verification channel identifies exactly the
	// planted vehicles and the targets equal the honest aggregate.
	ref := refFeatures(t, 8*2)
	const v, m, degree = 40, 8, 2 // K=15, E budget 12
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree})
	if err != nil {
		t.Fatal(err)
	}
	model := polyActivationModel(t, degree, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		ups := roundUploads(t, s, model, nil)
		e := rng.Intn(s.MaxMalicious() + 1)
		planted := map[int]bool{}
		for _, id := range rng.Perm(v)[:e] {
			planted[id] = true
			for j := range ups[id] {
				// Mixed corruption styles; each provably changes the
				// transported verification symbol (the halves are
				// non-negative integers, so an affine bump or +1 always
				// lands on a different value). A corruption that leaves
				// the symbol bit-identical is not a lie.
				switch rng.Intn(3) {
				case 0:
					ups[id][j] = rng.Float64() * 100
				case 1:
					ups[id][j] = ups[id][j]*2 + 7
				default:
					ups[id][j] += 1
				}
			}
		}
		targets, err := s.Aggregate(ups)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.DecodeFailures != 0 {
			t.Fatalf("trial %d (e=%d): %d decode failures", trial, e, s.DecodeFailures)
		}
		flagged := s.SuspectedMalicious()
		if len(flagged) != e {
			t.Fatalf("trial %d: flagged %d, want %d", trial, len(flagged), e)
		}
		for _, id := range flagged {
			if !planted[id] {
				t.Fatalf("trial %d: false positive %d", trial, id)
			}
		}
		for j, x := range ref {
			want, err := model.EstimateClamped(x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(targets[j]-want) > 1e-12 {
				t.Fatalf("trial %d: target[%d] leaked", trial, j)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %g, want NaN", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single median = %g, want 7", got)
	}
	// It sorts its argument in place (Aggregate hands it scratch): asking
	// again of the sorted slice gives the same answer.
	in := []float64{3, 1, 4, 2}
	if first, again := median(in), median(in); first != 2.5 || again != first || !sort.Float64sAreSorted(in) {
		t.Errorf("median = %g, then %g on the sorted slice %v", first, again, in)
	}
}

// perSlotReference is the oracle the streamed decode is pinned to:
// gather each verification slot's word from the present uploads, decode
// it on its own with a reedsolomon.Decoder over the present vehicles'
// points, tally failures and located vehicles, flag every vehicle that
// sent a learning estimate outside [0, 1], and form the targets from that
// verdict (the flagged-free mean, or the all-vehicle median without NaN
// once more than half the slots are undecodable).
func perSlotReference(t testing.TB, s *Scheme, ups [][]float64) (targets []float64, failures int, detected []int) {
	t.Helper()
	points := s.coder.Points()
	detected = make([]int, s.cfg.NumVehicles)
	for j := 0; j < s.slots; j++ {
		var xs, ys []field.Element
		var ids []int
		for i, up := range ups {
			if up == nil {
				continue
			}
			xs = append(xs, points[i])
			ys = append(ys, floatsToSymbol(up[2*j], up[2*j+1]))
			ids = append(ids, i)
		}
		if len(ids) < s.k {
			failures++
			continue
		}
		dec, err := reedsolomon.NewDecoder(xs, s.k)
		if err != nil {
			t.Fatalf("reference slot %d: %v", j, err)
		}
		res, err := dec.Decode(ys)
		if err != nil {
			if !errors.Is(err, reedsolomon.ErrTooManyErrors) {
				t.Fatalf("reference slot %d: %v", j, err)
			}
			failures++
			continue
		}
		for _, idx := range res.ErrorPositions {
			detected[ids[idx]]++
		}
	}
	offset := 2 * s.slots
	for i, up := range ups {
		if up != nil && slices.ContainsFunc(up[offset:], func(v float64) bool {
			return math.IsNaN(v) || v < 0 || v > 1
		}) {
			detected[i]++
		}
	}
	degraded := 2*failures > s.slots
	targets = make([]float64, len(s.refX))
	for j := range targets {
		var vals []float64
		var sum float64
		for i, up := range ups {
			if up == nil || (degraded && math.IsNaN(up[offset+j])) || (!degraded && detected[i] > 0) {
				continue
			}
			vals = append(vals, up[offset+j])
			sum += up[offset+j]
		}
		switch {
		case len(vals) == 0:
			targets[j] = fl.Dropped
		case degraded:
			targets[j] = median(vals)
		default:
			targets[j] = sum / float64(len(vals))
		}
	}
	return targets, failures, detected
}

// assertAggregateEquivalent feeds the same uploads to the scheme's two
// entries — AggregateStreamed (uploads ingested in vehicle-ID order) and
// then Aggregate, whose per-round fields the caller goes on to inspect —
// and requires each to match the per-slot reference bit for bit: targets
// (via Float64bits, so NaN fallbacks compare too), DecodeFailures and
// DetectedMalicious.
func assertAggregateEquivalent(t testing.TB, s *Scheme, ups [][]float64) []float64 {
	t.Helper()
	wantT, wantFailures, wantDetected := perSlotReference(t, s, ups)
	check := func(entry string, gotT []float64) {
		t.Helper()
		for j := range wantT {
			if math.Float64bits(gotT[j]) != math.Float64bits(wantT[j]) {
				t.Fatalf("target[%d]: %s %g, per-slot %g (not bit-identical)", j, entry, gotT[j], wantT[j])
			}
		}
		if s.DecodeFailures != wantFailures {
			t.Fatalf("DecodeFailures: %s %d, per-slot %d", entry, s.DecodeFailures, wantFailures)
		}
		if !slices.Equal(s.DetectedMalicious, wantDetected) {
			t.Fatalf("DetectedMalicious: %s %v, per-slot %v", entry, s.DetectedMalicious, wantDetected)
		}
	}
	order := make([]int, len(ups))
	for id := range order {
		order[id] = id
	}
	check("streamed", streamedAggregate(t, s, ups, order))
	gotT, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	check("batch", gotT)
	return gotT
}

func TestSchemeBatchEquivalence(t *testing.T) {
	// The batch-decode guarantee: batch and per-slot verification decoding
	// are bit-identical across worker counts and adversary fractions from zero
	// through the eq. 6 budget and beyond it (median-fallback regime).
	ref := refFeatures(t, 8*4) // S = 4 slots
	const v, m, degree = 40, 8, 2
	model := polyActivationModel(t, degree, 21)
	rng := rand.New(rand.NewSource(22))
	for _, workers := range []int{1, 2, 8} {
		cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Workers: workers, Seed: 3}
		batch, err := NewScheme(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxE := batch.MaxMalicious()
		for _, e := range []int{0, 1, maxE / 2, maxE, maxE + 5} {
			ups := roundUploads(t, batch, model, nil)
			for _, id := range rng.Perm(v)[:e] {
				for j := range ups[id] {
					ups[id][j] = ups[id][j]*2 + 7
				}
			}
			assertAggregateEquivalent(t, batch, ups)
			if e <= maxE {
				if batch.DecodeFailures != 0 {
					t.Fatalf("workers=%d e=%d: %d decode failures within budget", workers, e, batch.DecodeFailures)
				}
				if batch.BatchRecovered != batch.Slots() {
					t.Fatalf("workers=%d e=%d: fast path recovered %d of %d slots",
						workers, e, batch.BatchRecovered, batch.Slots())
				}
			}
		}
	}
}

func TestSchemeBatchEquivalenceWithDrops(t *testing.T) {
	// Straggler rounds: absent vehicles change the point set the round
	// decodes on, some present vehicles send NaN in one verification half
	// (a wrong symbol, located) and some lie wholesale.
	ref := refFeatures(t, 8*4)
	const v, m, degree = 40, 8, 1 // K=8, generous slack for drops
	model := polyActivationModel(t, degree, 23)
	rng := rand.New(rand.NewSource(24))
	cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Workers: 2, Seed: 5}
	batch, err := NewScheme(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		ups := roundUploads(t, batch, model, nil)
		for _, id := range rng.Perm(v)[:3+trial] {
			ups[id] = nil
		}
		for d := 0; d < 6; d++ {
			if ups[4+d] != nil {
				ups[4+d][2*rng.Intn(batch.Slots())+rng.Intn(2)] = math.NaN()
			}
		}
		for _, id := range rng.Perm(v)[:4] {
			if ups[id] == nil {
				continue
			}
			for j := range ups[id] {
				ups[id][j] = ups[id][j]*2 + 7
			}
		}
		assertAggregateEquivalent(t, batch, ups)
		if batch.DecodeFailures != 0 {
			t.Fatalf("trial %d: %d decode failures within budget", trial, batch.DecodeFailures)
		}
		for d := 0; d < 6; d++ {
			if ups[4+d] != nil && batch.DetectedMalicious[4+d] == 0 {
				t.Fatalf("trial %d: vehicle %d sent a NaN half and was not flagged", trial, 4+d)
			}
		}
	}
}

func TestPropertyPartialSlotCorruptionFlagged(t *testing.T) {
	// An adversary corrupting only a SUBSET of its verification slots is
	// still caught: any corrupted slot flags the vehicle, and the batch
	// path agrees with the per-slot path bit for bit.
	ref := refFeatures(t, 8*4) // S = 4 slots
	const v, m, degree = 40, 8, 2
	model := polyActivationModel(t, degree, 31)
	rng := rand.New(rand.NewSource(32))
	cfg := SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Workers: 3, Seed: 9}
	batch, err := NewScheme(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxE := batch.MaxMalicious()
	for trial := 0; trial < 10; trial++ {
		ups := roundUploads(t, batch, model, nil)
		e := 1 + rng.Intn(maxE)
		planted := map[int]int{} // vehicle -> corrupted slot count
		for _, id := range rng.Perm(v)[:e] {
			nSlots := 1 + rng.Intn(batch.Slots())
			for _, slot := range rng.Perm(batch.Slots())[:nSlots] {
				// Affine-bump the hi half: always lands on a different
				// transported symbol (see floatsToSymbol).
				ups[id][2*slot] = ups[id][2*slot]*2 + 7
			}
			planted[id] = nSlots
		}
		targets := assertAggregateEquivalent(t, batch, ups)
		if batch.DecodeFailures != 0 {
			t.Fatalf("trial %d: %d decode failures within budget", trial, batch.DecodeFailures)
		}
		for id, nSlots := range planted {
			if batch.DetectedMalicious[id] != nSlots {
				t.Fatalf("trial %d: vehicle %d flagged on %d slots, corrupted %d",
					trial, id, batch.DetectedMalicious[id], nSlots)
			}
		}
		if got := len(batch.SuspectedMalicious()); got != len(planted) {
			t.Fatalf("trial %d: flagged %d vehicles, want %d", trial, got, len(planted))
		}
		// Learning channel untouched, so targets must equal the honest
		// mean exactly: partial-slot liars are excluded wholesale.
		for j, x := range ref {
			want := 0.0
			count := 0
			for i := 0; i < v; i++ {
				if _, bad := planted[i]; bad {
					continue
				}
				pi, err := model.EstimateClamped(x)
				if err != nil {
					t.Fatal(err)
				}
				want += pi
				count++
				_ = i
			}
			want /= float64(count)
			if math.Abs(targets[j]-want) > 1e-12 {
				t.Fatalf("trial %d: target[%d] = %g, want honest mean %g", trial, j, targets[j], want)
			}
		}
	}
}

// heterogeneousLocals returns one single-layer model per vehicle, the
// shared model's parameters moved by a different random offset each — far
// enough that some estimates clamp — so that no two vehicles upload the
// same learning value and the order a mean sums them in shows in its bits.
func heterogeneousLocals(t *testing.T, shared *nn.Network, v int, rng *rand.Rand) []*nn.Network {
	t.Helper()
	locals := make([]*nn.Network, v)
	for i := range locals {
		locals[i] = shared.Clone()
		params := locals[i].Params()
		for k := range params {
			params[k] += 2 * (rng.Float64() - 0.5)
		}
		if err := locals[i].SetParams(params); err != nil {
			t.Fatal(err)
		}
	}
	return locals
}

// TestUploadLearningChannelIsPerRowEstimate: Upload fills the learning
// channel with one batch estimate; it must hold, after the 2·S
// verification floats, exactly EstimateClamped of every reference row.
func TestUploadLearningChannelIsPerRowEstimate(t *testing.T) {
	ref := refFeatures(t, 8*6)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: 12, NumBatches: 8, Degree: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	shared := polyActivationModel(t, 1, 41)
	locals := heterogeneousLocals(t, shared, 12, rand.New(rand.NewSource(42)))
	clamped := 0
	for i, up := range roundUploads(t, s, shared, locals) {
		if len(up) != s.UploadLen() {
			t.Fatalf("vehicle %d uploaded %d values, want %d", i, len(up), s.UploadLen())
		}
		for j, x := range ref {
			want, err := locals[i].EstimateClamped(x)
			if err != nil {
				t.Fatal(err)
			}
			if got := up[2*s.Slots()+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("vehicle %d sample %d: uploaded %v, EstimateClamped %v", i, j, got, want)
			}
			if want == 0 || want == 1 {
				clamped++
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no estimate clamped: the offsets no longer reach outside [0, 1]")
	}
}

// TestAggregateMeanMatchesColumnMajor pins the verified mean — Aggregate
// walks it upload by upload — to perSlotReference's sample-by-sample walk
// bit for bit, on rounds where the order of summation shows: every
// vehicle's learning values differ, some uploads are nil, some vehicles
// lie wholesale and are located, and two vehicles with an honest
// verification channel send one learning value outside [0, 1] (a NaN and
// 1.5) and are excluded by the range rule. A final leg puts the liars over
// the eq. 6 budget so the per-sample median, on its reused scratch and
// without the NaN, is compared the same way.
func TestAggregateMeanMatchesColumnMajor(t *testing.T) {
	const v, m, degree = 24, 4, 1 // K = 4, E = 10
	ref := refFeatures(t, m*6)
	s, err := NewScheme(ref, SchemeConfig{NumVehicles: v, NumBatches: m, Degree: degree, Workers: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	shared := polyActivationModel(t, degree, 51)
	rng := rand.New(rand.NewSource(52))
	locals := heterogeneousLocals(t, shared, v, rng)
	offset := 2 * s.Slots()
	// Two uploads are nil in every in-budget round, which costs one error
	// of the budget: (V − 2 − K)/2 = MaxMalicious − 1.
	for _, liars := range []int{0, 3, s.MaxMalicious() - 1, v - 2} {
		for trial := 0; trial < 4; trial++ {
			ups := roundUploads(t, s, shared, locals)
			perm := rng.Perm(v)
			lying := perm[:liars]
			lieWholesale(ups, lying)
			if liars < v-2 {
				ups[perm[v-1]], ups[perm[v-2]] = nil, nil
			} else {
				// lieWholesale is one affine map, so a majority of such liars
				// agree on a codeword of their own; make each lie differ.
				for _, id := range lying {
					for j := range ups[id] {
						ups[id][j] += float64(id)
					}
				}
			}
			breakers := perm[liars : liars+2]
			ups[breakers[0]][offset+3] = math.NaN()
			ups[breakers[1]][offset+7] = 1.5
			targets := assertAggregateEquivalent(t, s, ups)
			degraded := 2*s.DecodeFailures > s.Slots()
			if degraded != (liars == v-2) {
				t.Fatalf("%d liars: %d of %d slots undecodable", liars, s.DecodeFailures, s.Slots())
			}
			want := slices.Clone(perm[:liars+2])
			slices.Sort(want)
			if !degraded && !slices.Equal(s.SuspectedMalicious(), want) {
				t.Fatalf("%d liars: flagged %v, want %v", liars, s.SuspectedMalicious(), want)
			}
			if fl.IsDropped(targets[3]) {
				t.Fatalf("%d liars (degraded %v): sample 3 target %v", liars, degraded, targets[3])
			}
		}
	}
}
