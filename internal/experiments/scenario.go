// Package experiments reproduces every figure of the paper's evaluation
// (§VI, Figs. 2–9). Each figure has a driver returning a Figure table
// whose rows are the series the paper plots; cmd/lcofl renders them as
// TSV. DESIGN.md §4 maps figures to drivers.
//
// A Scenario pins one simulation configuration — dataset, fleet size,
// malicious fraction, activation degree, channel — and Run executes one
// comparison model over it. All models share seeds, data partition and
// hyperparameters, so differences between runs isolate the aggregation
// scheme, exactly as the paper's comparison intends.
package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/channel"
	"repro/internal/codedfl"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/iov"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// Variant names one comparison model from the paper's evaluation.
type Variant string

// The comparison models of §VI.
const (
	// Accurate is the ideal reference: plain FL without malicious
	// vehicles (the paper's "most ideal model").
	Accurate Variant = "accurate-fl"
	// PlainFL is the unprotected baseline with the exact activation.
	PlainFL Variant = "plain-fl"
	// ApproxOnly approximates the activation but aggregates plainly —
	// no Reed–Solomon protection.
	ApproxOnly Variant = "approx-only-fl"
	// LCoFL is the paper's contribution.
	LCoFL Variant = "l-cofl"
	// CodedFL24 is the Dhakal et al. [32] random-linear baseline with its
	// fixed 24-vehicle fleet (Fig. 2).
	CodedFL24 Variant = "coded-fl-24"
)

// Scenario pins one simulation configuration.
type Scenario struct {
	// Vehicles is V (the paper's default is 100).
	Vehicles int
	// Rounds is the number of global training rounds.
	Rounds int
	// Rows sizes the synthetic dataset.
	Rows int
	// Batches is M (paper: 16).
	Batches int
	// Degree is the activation-approximation degree d.
	Degree int
	// MaliciousFraction of the fleet lies (0 disables the adversary);
	// every liar uploads the constant lie.
	MaliciousFraction float64
	// Channel models the uplink (nil = perfect).
	Channel channel.Model
	// PlainInputNoise adds feature noise to the PlainFL variant's local
	// data — the paper's Fig. 3 note ("we add a random value to input
	// data of plain FL model") so the ideal model's error stays visible.
	PlainInputNoise float64
	// Mobility drives the IoV mobility simulation (package iov): vehicles
	// move every round and out-of-coverage vehicles become stragglers
	// whose uploads never arrive.
	Mobility bool
	// NonIIDSkew > 0 partitions local data by time-of-day instead of IID
	// (traffic.PartitionNonIID); 1 = fully time-sorted windows.
	NonIIDSkew float64
	// Seed drives every random choice.
	Seed int64
	// Obs attaches the observability layer to the run's FL system and
	// (for L-CoFL) coding scheme. Nil disables instrumentation.
	Obs *obs.Obs
}

// What every scenario shares: the fusion centre's reference set is
// refRowsPerBatch·M rows, a liar uploads lie (adversary.ConstantLie), and
// the learning hyperparameters are fixed.
const (
	refRowsPerBatch = 8
	lie             = 5.0
	localEpochs     = 5
	localRate       = 0.2
	distillEpochs   = 30
	distillRate     = 0.2
	serverStep      = 0.5
)

// withDefaults fills unset fields.
func (s Scenario) withDefaults() Scenario {
	if s.Vehicles == 0 {
		s.Vehicles = 100
	}
	if s.Rounds == 0 {
		s.Rounds = 15
	}
	if s.Rows == 0 {
		s.Rows = 2500
	}
	if s.Batches == 0 {
		s.Batches = traffic.NumFeatures
	}
	if s.Degree == 0 {
		s.Degree = 1
	}
	return s
}

// RunOutput collects one model run's observables.
type RunOutput struct {
	// Variant names the model.
	Variant Variant
	// Acc is the per-round test accuracy trace.
	Acc metrics.Trace
	// MeanEst is the per-round mean estimation over the test set (Fig. 4).
	MeanEst metrics.Trace
	// TestEstimates holds the final model's estimation per test sample.
	TestEstimates []float64
	// TestLabels holds the matching ground-truth labels.
	TestLabels []float64
	// DecodeFailures totals verification-slot failures (L-CoFL only).
	DecodeFailures int
	// SuspectedMalicious is the last round's flagged-vehicle count
	// (L-CoFL only).
	SuspectedMalicious int
	// Flagged lists, ascending, every vehicle flagged in any round
	// (L-CoFL only) — the rule of node.Report.SuspectedMalicious.
	Flagged []int
	// FinalParams is the shared model's parameter vector after the last
	// round.
	FinalParams []float64
}

// setup is what one Scenario builds for a variant before any round runs;
// Run drives it through fl.System, Deploy hands it to the round engine.
type setup struct {
	test   *traffic.Dataset
	refX   [][]float64
	parts  [][]nn.Sample
	act    approx.Activation
	fl     fl.Config
	scheme core.SchemeConfig // L-CoFL's coding parameters
	plan   *adversary.Plan   // nil when nobody lies
}

// build derives variant v's data, partitions, reference set, activation,
// learning configuration, coding parameters and adversary plan from the
// defaulted scenario sc. Every random choice has its own seed offset:
// data +0, split +1, reference set +2, partition +3, PlainFL input noise
// +4+i, FL +5, scheme +6, plan +7 (and Run's mobility +8).
func (sc Scenario) build(v Variant) (*setup, error) {
	ds, err := traffic.Generate(traffic.GenConfig{Rows: sc.Rows, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	train, test, err := ds.Split(0.8, sc.Seed+1)
	if err != nil {
		return nil, err
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: refRowsPerBatch * sc.Batches, Seed: sc.Seed + 2})
	if err != nil {
		return nil, err
	}
	b := &setup{test: test, refX: refDS.Features()}

	vehicles := sc.Vehicles
	if v == CodedFL24 {
		vehicles = codedfl.DefaultVehicles
	}
	if sc.NonIIDSkew > 0 {
		b.parts, err = train.PartitionNonIID(vehicles, sc.NonIIDSkew, sc.Seed+3)
	} else {
		b.parts, err = train.PartitionIID(vehicles, sc.Seed+3)
	}
	if err != nil {
		return nil, err
	}
	if v == PlainFL && sc.PlainInputNoise > 0 {
		for i := range b.parts {
			b.parts[i] = traffic.CorruptLowQuality(b.parts[i], sc.PlainInputNoise, 0, sc.Seed+4+int64(i))
		}
	}

	// Activation: exact for the uncoded/unapproximated models, the
	// least-squares polynomial (paper §VI: 21 points on [-2, 2]) for the
	// approximated ones.
	exact := approx.SymmetricSigmoid()
	switch v {
	case Accurate, PlainFL, CodedFL24:
		b.act = exact
	case ApproxOnly, LCoFL:
		p, err := approx.LeastSquares{SamplePoints: 21}.Fit(exact.F, -2, 2, sc.Degree)
		if err != nil {
			return nil, err
		}
		b.act = approx.FromPolynomial(fmt.Sprintf("ls-%d", sc.Degree), p)
	default:
		return nil, fmt.Errorf("experiments: unknown variant %q", v)
	}

	b.fl = fl.Config{
		InputSize:     traffic.NumFeatures,
		LocalEpochs:   localEpochs,
		LocalRate:     localRate,
		DistillEpochs: distillEpochs,
		DistillRate:   distillRate,
		ServerStep:    serverStep,
		Seed:          sc.Seed + 5,
		Obs:           sc.Obs,
	}
	if b.act.Poly != nil && sc.Degree > 1 {
		// Higher-degree polynomial activations have fast-growing
		// derivatives, so per-sample SGD needs smaller steps to stay in
		// the stable region (at the default rate the weights diverge
		// within a few epochs). Scaling by 1/d² keeps training stable
		// through degree 4 without touching the degree-1 dynamics.
		b.fl.LocalRate = localRate / float64(sc.Degree*sc.Degree)
	}
	b.scheme = core.SchemeConfig{
		NumVehicles: vehicles,
		NumBatches:  sc.Batches,
		Degree:      sc.Degree,
		Seed:        sc.Seed + 6,
		Obs:         sc.Obs,
	}
	if sc.MaliciousFraction > 0 && v != Accurate && v != CodedFL24 {
		b.plan, err = adversary.NewPlan(vehicles, sc.MaliciousFraction, adversary.ConstantLie{Value: lie}, sc.Seed+7)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Run executes one comparison model over the scenario.
func (s Scenario) Run(v Variant) (*RunOutput, error) {
	sc := s.withDefaults()
	sc.Obs.Emit("experiments.run_start",
		obs.F("variant", string(v)),
		obs.F("seed", sc.Seed),
		obs.F("vehicles", sc.Vehicles),
		obs.F("rounds", sc.Rounds))
	runSpan := sc.Obs.Start("experiments.run", obs.F("variant", string(v)), obs.F("seed", sc.Seed))
	b, err := sc.build(v)
	if err != nil {
		return nil, err
	}
	sys, err := fl.NewSystem(b.fl, b.parts, b.refX, b.act)
	if err != nil {
		return nil, err
	}

	var scheme fl.Scheme
	var coded *core.Scheme
	switch v {
	case Accurate, PlainFL, ApproxOnly:
		scheme, err = fl.NewPlainScheme(b.refX)
	case LCoFL:
		coded, err = core.NewScheme(b.refX, b.scheme)
		scheme = coded
	case CodedFL24:
		scheme, err = codedfl.NewScheme(b.refX, codedfl.Config{
			NumVehicles: b.scheme.NumVehicles,
			Seed:        b.scheme.Seed,
		})
	}
	if err != nil {
		return nil, err
	}

	ch := sc.Channel
	if sc.Mobility {
		mobCfg := iov.DefaultConfig(sc.Seed + 8)
		mobCfg.NumVehicles = len(b.parts)
		mob, err := iov.NewScenario(mobCfg)
		if err != nil {
			return nil, err
		}
		cover, err := iov.NewCoverageChannel(mob, sc.Channel)
		if err != nil {
			return nil, err
		}
		ch = cover
	}

	out := &RunOutput{Variant: v, Acc: metrics.Trace{Name: string(v)}, MeanEst: metrics.Trace{Name: string(v)}}
	test, testX := b.test, b.test.Features()
	flagged := make([]bool, len(b.parts))
	for r := 0; r < sc.Rounds; r++ {
		stats, err := sys.RunRound(scheme, b.plan, ch)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s round %d: %w", v, r, err)
		}
		acc, err := sys.Accuracy(test.Samples)
		if err != nil {
			return nil, err
		}
		out.Acc.Append(acc)
		me, err := sys.MeanEstimate(testX)
		if err != nil {
			return nil, err
		}
		out.MeanEst.Append(me)
		if coded != nil {
			out.DecodeFailures += coded.DecodeFailures
		}
		out.SuspectedMalicious = 0
		for id, verdict := range stats.Verdicts {
			if verdict == fl.Flagged {
				flagged[id] = true
				out.SuspectedMalicious++
			}
		}
	}
	for id, f := range flagged {
		if f {
			out.Flagged = append(out.Flagged, id)
		}
	}
	out.FinalParams = sys.Shared().Params()
	out.TestLabels = test.Labels()
	out.TestEstimates = make([]float64, test.Len())
	for i, x := range testX {
		pi, err := sys.Shared().EstimateClamped(x)
		if err != nil {
			return nil, err
		}
		out.TestEstimates[i] = pi
	}
	runSpan.End(
		obs.F("decode_failures", out.DecodeFailures),
		obs.F("suspected_malicious", out.SuspectedMalicious))
	return out, nil
}
