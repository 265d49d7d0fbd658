package fl

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/approx"
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

// loseUploads is a channel that loses the listed vehicles' uploads whole
// and delivers the rest untouched.
type loseUploads map[int]bool

func (loseUploads) Name() string { return "lose" }

func (l loseUploads) Transmit(vehicle int, _ []float64) bool { return !l[vehicle] }

// absentSpy is a PlainScheme that records which rows its Aggregate was
// handed absent.
type absentSpy struct {
	*PlainScheme
	absent []int
}

func (a *absentSpy) Aggregate(uploads [][]float64) ([]float64, error) {
	a.absent = a.absent[:0]
	for i, up := range uploads {
		if up == nil {
			a.absent = append(a.absent, i)
		}
	}
	return a.PlainScheme.Aggregate(uploads)
}

// TestRunRoundChannelDrops: an upload the channel loses is a nil row in
// the aggregation, and the round counts its vehicle once.
func TestRunRoundChannelDrops(t *testing.T) {
	sys, _ := buildSystem(t, 6, approx.SymmetricSigmoid())
	plain, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	spy := &absentSpy{PlainScheme: plain}
	stats, err := sys.RunRound(spy, nil, loseUploads{1: true, 4: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedUploads != 2 {
		t.Errorf("DroppedUploads = %d, want 2", stats.DroppedUploads)
	}
	if len(spy.absent) != 2 || spy.absent[0] != 1 || spy.absent[1] != 4 {
		t.Errorf("aggregation saw absent rows %v, want [1 4]", spy.absent)
	}
}

// suspectSpy is a PlainScheme whose verification names a fixed set of
// vehicles, as core.Scheme's SuspectedMalicious does.
type suspectSpy struct {
	*PlainScheme
	suspects []int
}

func (s *suspectSpy) SuspectedMalicious() []int { return s.suspects }

// TestRunRoundVerdicts: a round states one verdict per vehicle — Lost for
// an upload the channel lost, Flagged for a vehicle the scheme names,
// Admitted otherwise — and DroppedUploads counts the Lost ones.
func TestRunRoundVerdicts(t *testing.T) {
	sys, _ := buildSystem(t, 6, approx.SymmetricSigmoid())
	plain, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.RunRound(&suspectSpy{PlainScheme: plain, suspects: []int{2}}, nil, loseUploads{1: true, 4: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Verdict{Admitted, Lost, Flagged, Admitted, Lost, Admitted}
	if !slices.Equal(stats.Verdicts, want) {
		t.Errorf("verdicts %v, want %v", stats.Verdicts, want)
	}
	var tally Tally
	tally.Add(stats.Verdicts)
	if got := tally.String(); got != "3 admitted, 1 flagged, 2 lost" || stats.DroppedUploads != tally[Lost] {
		t.Errorf("tally %q, DroppedUploads %d", got, stats.DroppedUploads)
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
		{0.2, 0.5},
		{0.4, 1},
		nil, // absent vehicle
	}
	got, err := scheme.Aggregate(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.3) > 1e-12 || got[1] != 0.75 {
		t.Errorf("means = %v, want [0.3 0.75]", got)
	}
	got, err = scheme.Aggregate([][]float64{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if !IsDropped(got[0]) || !IsDropped(got[1]) {
		t.Errorf("a round with no vehicle present aggregated to %v", got)
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

// TestPolynomialRoundsStayFinite runs the set-up under which hidden
// layers once trained every vehicle to NaN without a report — testConfig,
// four vehicles, the degree-2 least-squares sigmoid, four rounds — on the
// one model there is, and requires every vehicle model and MeanLocalLoss
// finite and a positive DistillLoss in every round.
func TestPolynomialRoundsStayFinite(t *testing.T) {
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := buildSystem(t, 4, approx.FromPolynomial("ls2", p))
	scheme, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for round := 1; round <= 4; round++ {
		stats, err := sys.RunRound(scheme, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !finite(stats.MeanLocalLoss) || !(stats.DistillLoss > 0) || !finite(stats.DistillLoss) {
			t.Fatalf("round %d: MeanLocalLoss %v, DistillLoss %v", round, stats.MeanLocalLoss, stats.DistillLoss)
		}
		for _, v := range sys.vehicles {
			for j, w := range v.Model.ParamsView() {
				if !finite(w) {
					t.Fatalf("round %d vehicle %d: parameter %d is %v", round, v.ID, j, w)
				}
			}
		}
	}
}

// TestCloseRoundNoTargetsHoldsStill: a round that admitted nobody
// aggregates to all-Dropped targets, and the close leaves the model where
// it was instead of failing.
func TestCloseRoundNoTargetsHoldsStill(t *testing.T) {
	sys, _ := buildSystem(t, 3, approx.SymmetricSigmoid())
	scheme, err := NewPlainScheme(sys.ReferenceFeatures())
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Shared().Params()
	targets, err := scheme.Aggregate(make([][]float64, sys.NumVehicles()))
	if err != nil {
		t.Fatal(err)
	}
	if err := CloseRound(sys.distiller, sys.Shared(), targets); err != nil {
		t.Fatal(err)
	}
	loss, err := sys.distiller.Loss(sys.Shared())
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
}

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

// TestMeanLocalLossIsFinalEpochMean pins a round's MeanLocalLoss to its
// formula: the mean, in vehicle order, of each vehicle's final-epoch loss,
// which is eq. 11 at π before each step's update summed in the order that
// epoch visited the samples. The replay takes a clone of each vehicle
// from the broadcast model, with the vehicle's seed, through the same
// epochs one sample at a time: the loss from Network.Loss, then a
// one-sample step without an rng. So no loss the epoch kernel recorded
// takes part. Two rounds under a polynomial activation and two under the
// exact sigmoid; the replayed models must also be the vehicles' bit for
// bit.
func TestMeanLocalLossIsFinalEpochMean(t *testing.T) {
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range []approx.Activation{approx.FromPolynomial("ls2", p), approx.SymmetricSigmoid()} {
		cfg := testConfig()
		sys, _ := buildSystemWith(t, 4, act, cfg)
		scheme, err := NewPlainScheme(sys.ReferenceFeatures())
		if err != nil {
			t.Fatal(err)
		}
		replicas := make([]*nn.Network, len(sys.vehicles))
		rngs := make([]*rand.Rand, len(sys.vehicles))
		for i, v := range sys.vehicles {
			replicas[i] = v.Model.Clone()
			rngs[i] = rand.New(rand.NewSource(VehicleSeed(cfg.Seed, v.ID)))
		}
		for round := 1; round <= 2; round++ {
			broadcast := sys.Shared().Params()
			var lossSum float64
			for i, v := range sys.vehicles {
				lossSum += replayLocalLoss(t, replicas[i], broadcast, v.Data, cfg, rngs[i])
			}
			want := lossSum / float64(len(sys.vehicles))
			stats, err := sys.RunRound(scheme, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(want) || math.IsInf(want, 0) {
				t.Fatalf("%s round %d: replayed mean local loss %v, want a finite one", act.Name, round, want)
			}
			if math.Float64bits(stats.MeanLocalLoss) != math.Float64bits(want) {
				t.Fatalf("%s round %d: MeanLocalLoss %v, replayed %v", act.Name, round, stats.MeanLocalLoss, want)
			}
			for i, v := range sys.vehicles {
				got, rep := v.Model.Params(), replicas[i].Params()
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(rep[j]) {
						t.Fatalf("%s round %d vehicle %d: parameter %d is %v, replayed %v", act.Name, round, v.ID, j, got[j], rep[j])
					}
				}
			}
		}
	}
}

// replayLocalLoss trains net from the broadcast parameters over data for
// cfg.LocalEpochs epochs, shuffled by rng as rand.Shuffle does, one
// sample per call, and returns the final epoch's mean loss, each sample's
// taken before its step.
func replayLocalLoss(t *testing.T, net *nn.Network, broadcast []float64, data []nn.Sample, cfg Config, rng *rand.Rand) float64 {
	t.Helper()
	if err := net.SetParams(broadcast); err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	var total float64
	for e := 0; e < cfg.LocalEpochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total = 0
		for _, idx := range order {
			l, err := net.Loss(data[idx].X, data[idx].Y)
			if err != nil {
				t.Fatal(err)
			}
			total += l
			if _, err := net.TrainSGD(data[idx:idx+1], cfg.LocalRate, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return total / float64(len(data))
}

// NumVehicles returns V.
func (s *System) NumVehicles() int { return len(s.vehicles) }

// Round returns the number of completed global rounds.
func (s *System) Round() int { return s.round }
