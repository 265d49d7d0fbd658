package fl

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/channel"
	"repro/internal/nn"
	"repro/internal/traffic"
)

// ReferenceFeatures returns the fusion centre's reference features
// (copies), the rows a PlainScheme of the same system is built on.
func (s *System) ReferenceFeatures() [][]float64 { return cloneRows(s.refX) }

func testConfig() Config {
	return Config{
		InputSize:     traffic.NumFeatures,
		LocalEpochs:   5,
		LocalRate:     0.2,
		DistillEpochs: 30,
		DistillRate:   0.2,
		ServerStep:    0.5,
		Seed:          1,
	}
}

// buildSystem creates a small deployment over synthetic traffic data. The
// fusion centre's reference features come from a separate unlabeled draw,
// modelling sensing data the infrastructure collects itself.
func buildSystem(t *testing.T, vehicles int, act approx.Activation) (*System, *traffic.Dataset) {
	t.Helper()
	return buildSystemWith(t, vehicles, act, testConfig())
}

// buildSystemWith is buildSystem with an explicit configuration.
func buildSystemWith(t *testing.T, vehicles int, act approx.Activation, cfg Config) (*System, *traffic.Dataset) {
	t.Helper()
	ds, err := traffic.Generate(traffic.GenConfig{Rows: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := traffic.Generate(traffic.GenConfig{Rows: 300, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := train.PartitionIID(vehicles, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, parts, ref.Features(), act)
	if err != nil {
		t.Fatal(err)
	}
	return sys, test
}

func TestNewSystemValidation(t *testing.T) {
	act := approx.SymmetricSigmoid()
	good := [][]nn.Sample{{{X: make([]float64, 16), Y: 1}}}
	ref := [][]float64{make([]float64, 16)}

	cfg := testConfig()
	cfg.InputSize = 0
	if _, err := NewSystem(cfg, good, ref, act); err == nil {
		t.Error("zero input size accepted")
	}
	cfg = testConfig()
	cfg.LocalEpochs = 0
	if _, err := NewSystem(cfg, good, ref, act); err == nil {
		t.Error("zero local epochs accepted")
	}
	cfg = testConfig()
	cfg.DistillRate = 0
	if _, err := NewSystem(cfg, good, ref, act); err == nil {
		t.Error("zero distill rate accepted")
	}
	cfg = testConfig()
	cfg.ServerStep = 1.5
	if _, err := NewSystem(cfg, good, ref, act); err == nil {
		t.Error("server step > 1 accepted")
	}
	if _, err := NewSystem(testConfig(), nil, ref, act); err == nil {
		t.Error("no vehicles accepted")
	}
	if _, err := NewSystem(testConfig(), good, nil, act); err == nil {
		t.Error("no reference features accepted")
	}
	if _, err := NewSystem(testConfig(), [][]nn.Sample{{}}, ref, act); err == nil {
		t.Error("vehicle with empty data accepted")
	}
	badRef := [][]float64{make([]float64, 3)}
	if _, err := NewSystem(testConfig(), good, badRef, act); err == nil {
		t.Error("wrong reference width accepted")
	}
}

func TestRunRoundPlainHonest(t *testing.T) {
	sys, test := buildSystem(t, 10, approx.SymmetricSigmoid())
	scheme, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	accBefore, err := sys.Accuracy(test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	var stats *RoundStats
	var tail float64
	for r := 0; r < rounds; r++ {
		stats, err = sys.RunRound(scheme, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r >= rounds-5 {
			acc, err := sys.Accuracy(test.Samples)
			if err != nil {
				t.Fatal(err)
			}
			tail += acc / 5
		}
	}
	if stats.Round != rounds || sys.Round() != rounds {
		t.Errorf("round accounting: %d/%d", stats.Round, sys.Round())
	}
	// Per-round SGD noise makes single-round comparisons flaky; judge the
	// mean accuracy of the last five rounds.
	if tail < accBefore {
		t.Errorf("accuracy regressed %g -> %g over honest rounds", accBefore, tail)
	}
	if tail < 0.78 {
		t.Errorf("final accuracy %g too low — distillation is not learning", tail)
	}
	for _, target := range stats.Targets {
		if !IsDropped(target) && (target < 0 || target > 1.5) {
			t.Errorf("implausible estimation target %g", target)
		}
	}
}

func TestRunRoundMaliciousDegradesPlain(t *testing.T) {
	// The paper's central premise: plain averaging is poisoned by
	// malicious uploads. Targets under attack must differ markedly from
	// honest targets.
	sysHonest, _ := buildSystem(t, 10, approx.SymmetricSigmoid())
	sysAttack, _ := buildSystem(t, 10, approx.SymmetricSigmoid())
	scheme, err := NewPlainScheme(sysHonest.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adversary.NewPlan(10, 0.3, adversary.ConstantLie{Value: 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sysHonest.RunRound(scheme, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := sysAttack.RunRound(scheme, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	var gap float64
	for j := range sh.Targets {
		gap += math.Abs(sh.Targets[j] - sa.Targets[j])
	}
	gap /= float64(len(sh.Targets))
	// 30% of vehicles reporting 5 shifts the mean by ≈ 0.3·(5-π) ≥ 1.
	if gap < 0.5 {
		t.Errorf("malicious uploads shifted targets by only %g", gap)
	}
}

func TestRunRoundChannelDrops(t *testing.T) {
	sys, _ := buildSystem(t, 6, approx.SymmetricSigmoid())
	scheme, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	er, err := channel.NewErasure(0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.RunRound(scheme, nil, er)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedScalars == 0 {
		t.Error("no scalars dropped at p=0.5")
	}
}

func TestRunRoundValidation(t *testing.T) {
	sys, _ := buildSystem(t, 3, approx.SymmetricSigmoid())
	if _, err := sys.RunRound(nil, nil, nil); err == nil {
		t.Error("nil scheme accepted")
	}
}

func TestPlainSchemeAggregate(t *testing.T) {
	ref := [][]float64{{0}, {0}}
	scheme, err := NewPlainScheme(ref)
	if err != nil {
		t.Fatal(err)
	}
	uploads := [][]float64{
		{0.2, Dropped},
		{0.4, Dropped},
		nil, // absent vehicle
	}
	got, err := scheme.Aggregate(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.3) > 1e-12 {
		t.Errorf("mean = %g, want 0.3", got[0])
	}
	if !IsDropped(got[1]) {
		t.Errorf("fully-dropped sample aggregated to %g", got[1])
	}
	if _, err := scheme.Aggregate([][]float64{{1, 2, 3}}); err == nil {
		t.Error("wrong upload width accepted")
	}
	if _, err := NewPlainScheme(nil); err == nil {
		t.Error("empty reference accepted")
	}
}

func TestMeanEstimate(t *testing.T) {
	sys, test := buildSystem(t, 3, approx.SymmetricSigmoid())
	m, err := sys.MeanEstimate(test.Features())
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 || m >= 1 {
		t.Errorf("mean estimate %g outside (0,1)", m)
	}
	if _, err := sys.MeanEstimate(nil); err == nil {
		t.Error("empty feature set accepted")
	}
}

func TestAccuracyValidation(t *testing.T) {
	sys, _ := buildSystem(t, 3, approx.SymmetricSigmoid())
	if _, err := sys.Accuracy(nil); err == nil {
		t.Error("empty test set accepted")
	}
}

func TestDistillHiddenLayerPath(t *testing.T) {
	// Multi-layer shared models take the full-batch gradient-descent
	// distillation path (the closed logit form only fits a single layer).
	cfg := testConfig()
	cfg.Hidden = []int{6}
	cfg.DistillEpochs = 40
	cfg.DistillRate = 0.5
	sys, test := buildSystemWith(t, 8, approx.SymmetricSigmoid(), cfg)
	scheme, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	accBefore, err := sys.Accuracy(test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	var tail float64
	const rounds = 15
	for r := 0; r < rounds; r++ {
		if _, err := sys.RunRound(scheme, nil, nil); err != nil {
			t.Fatal(err)
		}
		if r >= rounds-5 {
			a, err := sys.Accuracy(test.Samples)
			if err != nil {
				t.Fatal(err)
			}
			tail += a / 5
		}
	}
	if tail < accBefore-0.05 {
		t.Errorf("hidden-layer distillation regressed: %g -> %g", accBefore, tail)
	}
}

// TestCloseRoundNoTargetsHoldsStill: a round that admitted nobody
// aggregates to all-Dropped targets, and the close leaves the model where
// it was instead of failing. A streamed ingest needs a streaming scheme.
func TestCloseRoundNoTargetsHoldsStill(t *testing.T) {
	sys, _ := buildSystem(t, 3, approx.SymmetricSigmoid())
	scheme, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Shared().Params()
	targets, loss, err := CloseRound(scheme, nil, sys.distiller, sys.Shared(), make([][]float64, sys.NumVehicles()))
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 || !IsDropped(targets[0]) {
		t.Errorf("empty round: loss %g, first target %g", loss, targets[0])
	}
	for i, p := range sys.Shared().Params() {
		if math.Float64bits(p) != math.Float64bits(before[i]) {
			t.Fatal("empty round moved the model")
		}
	}
	if _, _, err := CloseRound(scheme, nopSink{}, sys.distiller, sys.Shared(), nil); err == nil {
		t.Error("streamed ingest accepted by a scheme without streamed aggregation")
	}
}

type nopSink struct{}

func (nopSink) Add(int, []float64) error { return nil }

func TestDeterministicRounds(t *testing.T) {
	a, _ := buildSystem(t, 5, approx.SymmetricSigmoid())
	b, _ := buildSystem(t, 5, approx.SymmetricSigmoid())
	sa, err := NewPlainScheme(a.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewPlainScheme(b.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.RunRound(sa, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunRound(sb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ra.Targets {
		if ra.Targets[j] != rb.Targets[j] {
			t.Fatal("same seeds produced different rounds")
		}
	}
}

// NumVehicles returns V.
func (s *System) NumVehicles() int { return len(s.vehicles) }

// Round returns the number of completed global rounds.
func (s *System) Round() int { return s.round }
