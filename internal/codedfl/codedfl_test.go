package codedfl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/traffic"
)

func buildRef(t *testing.T, rows int) [][]float64 {
	t.Helper()
	ds, err := traffic.Generate(traffic.GenConfig{Rows: rows, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Features()
}

func TestNewSchemeValidation(t *testing.T) {
	ref := buildRef(t, 48)
	if _, err := NewScheme(nil, Config{}); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := NewScheme(ref, Config{NumVehicles: -1}); err == nil {
		t.Error("negative vehicles accepted")
	}
	if _, err := NewScheme(ref, Config{NumVehicles: 4, MeasurementsPerVehicle: 2}); err == nil {
		t.Error("under-determined configuration accepted")
	}
	s, err := NewScheme(ref, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.NumVehicles != DefaultVehicles {
		t.Errorf("default vehicles = %d", s.cfg.NumVehicles)
	}
	if total := s.cfg.NumVehicles * s.MeasurementsPerVehicle(); total < len(ref) {
		t.Errorf("default redundancy under-determined: %d < %d", total, len(ref))
	}
}

func TestRoundTripHonest(t *testing.T) {
	ref := buildRef(t, 48)
	s, err := NewScheme(ref, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t)
	if err := s.BeginRound(model); err != nil {
		t.Fatal(err)
	}
	ups := make([][]float64, DefaultVehicles)
	for i := range ups {
		up, err := s.Upload(i, model)
		if err != nil {
			t.Fatal(err)
		}
		ups[i] = up
	}
	got, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range ref {
		want, err := model.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[j]-want) > 1e-4 {
			t.Fatalf("recovered[%d] = %g, want %g", j, got[j], want)
		}
	}
}

func TestStragglerTolerance(t *testing.T) {
	ref := buildRef(t, 48)
	s, err := NewScheme(ref, Config{Seed: 4, MeasurementsPerVehicle: 4}) // 96 measurements for 48 unknowns
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t)
	ups := make([][]float64, DefaultVehicles)
	for i := range ups {
		up, err := s.Upload(i, model)
		if err != nil {
			t.Fatal(err)
		}
		ups[i] = up
	}
	// Drop 8 of 24 vehicles: 64 ≥ 48 measurements survive.
	for i := 0; i < 8; i++ {
		ups[i] = nil
	}
	got, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range ref {
		want, _ := model.Estimate(x)
		if math.Abs(got[j]-want) > 5e-3 {
			t.Fatalf("straggler recovery[%d] = %g, want %g", j, got[j], want)
		}
	}
	// Beyond tolerance: 15 dropped → 36 < 48.
	for i := 0; i < 15; i++ {
		ups[i] = nil
	}
	if _, err := s.Aggregate(ups); err == nil {
		t.Error("over-straggled aggregation accepted")
	}
}

func TestNoMaliciousProtection(t *testing.T) {
	// The baseline's documented weakness: a single gross liar corrupts
	// the recovery. This is what Fig. 2/5 contrast against L-CoFL.
	ref := buildRef(t, 48)
	s, err := NewScheme(ref, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t)
	ups := make([][]float64, DefaultVehicles)
	for i := range ups {
		up, _ := s.Upload(i, model)
		ups[i] = up
	}
	for j := range ups[0] {
		ups[0][j] = 100
	}
	got, err := s.Aggregate(ups)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for j, x := range ref {
		want, _ := model.Estimate(x)
		if d := math.Abs(got[j] - want); d > worst {
			worst = d
		}
	}
	if worst < 0.05 {
		t.Errorf("malicious upload barely moved recovery (%g) — baseline should be vulnerable", worst)
	}
}

func TestInFullSystem(t *testing.T) {
	// Fig. 2 scenario: 24 faithful vehicles, some of whose uploads are
	// lost each round; the baseline must still learn.
	ds, err := traffic.Generate(traffic.GenConfig{Rows: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRef(t, 48)
	parts, err := train.PartitionIID(DefaultVehicles, 8)
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
		Seed:          9,
	}
	sys, err := fl.NewSystem(cfg, parts, ref, approx.SymmetricSigmoid())
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := NewScheme(ref, Config{Seed: 10, MeasurementsPerVehicle: 4})
	if err != nil {
		t.Fatal(err)
	}
	er := &stragglers{p: 0.1, rng: rand.New(rand.NewSource(11))}
	accBefore, err := sys.Accuracy(test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	var tail float64
	const rounds = 15
	for r := 0; r < rounds; r++ {
		if _, err := sys.RunRound(scheme, nil, er); err != nil {
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
	if tail < accBefore || tail < 0.7 {
		t.Errorf("coded-FL baseline accuracy %g (start %g) — not learning", tail, accBefore)
	}
}

// stragglers is a channel that loses each vehicle's upload whole with
// probability p.
type stragglers struct {
	p   float64
	rng *rand.Rand
}

func (s *stragglers) Name() string { return "stragglers" }

func (s *stragglers) Transmit(int, []float64) bool { return s.rng.Float64() >= s.p }

// testModel builds a deterministic single-layer network with the exact
// activation — the baseline does not approximate its model.
func testModel(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.New(nn.Config{
		LayerSizes: []int{traffic.NumFeatures, 1},
		Activation: approx.SymmetricSigmoid(),
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}
