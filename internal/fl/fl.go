// Package fl implements the federated-learning substrate shared by every
// comparison model in the paper's evaluation (paper §III-A and §VI).
//
// A System holds the fusion centre's shared model, the vehicles with
// their local datasets, and the fusion centre's reference feature set.
// One global round (paper §III-A) proceeds as:
//
//  1. the fusion centre broadcasts the shared model parameters;
//  2. every vehicle resets its local model to the broadcast parameters
//     and trains on its local dataset by SGD (eq. 1);
//  3. every vehicle computes an estimation upload from its locally
//     trained model — what exactly it uploads is the pluggable Scheme
//     (plain per-sample estimates, Lagrange-encoded estimates, …);
//     malicious vehicles corrupt their upload (package adversary) and the
//     wireless channel may corrupt values or lose the upload whole
//     (package channel);
//  4. the fusion centre aggregates the received uploads into per-
//     reference-sample estimation targets (the Scheme again: plain
//     averaging per eq. 2, or Reed–Solomon decoding for L-CoFL) and
//     updates the shared model by fitting those targets (federated
//     distillation — see DESIGN.md §1(b) for why this is the coherent
//     reading of the paper's "vehicles upload only estimation results").
//
// Step 4 is the scheme's aggregation followed by CloseRound, the fit the
// networked engine (package node) runs too: given the same admitted
// uploads both drivers close a round alike, so a System is the engine's
// test oracle (DESIGN.md §14).
//
// The package provides the two baseline schemes (plain FL and
// approximation-only FL differ solely in the activation installed into
// the models); package core provides the paper's contribution on top of
// the same System.
package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/channel"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Dropped is the target of a reference sample no upload estimated, for
// example in a round that heard from no vehicle; the fit leaves such a
// sample out. It marks targets only: an upload is whole or absent, and a
// NaN inside one is a value like any other.
var Dropped = math.NaN()

// IsDropped reports whether an aggregated target is Dropped.
func IsDropped(v float64) bool { return math.IsNaN(v) }

// Config parameterises a System.
type Config struct {
	// InputSize is the feature-vector length (the paper's M = 16).
	InputSize int
	// LocalEpochs is the per-round local SGD epoch count t.
	LocalEpochs int
	// LocalRate is the local learning rate ρ of eq. 1.
	LocalRate float64
	// DistillEpochs and DistillRate were the epoch count and learning
	// rate of a gradient-descent fusion update. The closed-form fit
	// (Distiller) reads neither; they are still validated, because the
	// benchmark harness and package experiments still set them.
	DistillEpochs int
	DistillRate   float64
	// ServerStep damps the fusion centre's parameter update:
	// new = old + ServerStep·(fit − old). Values in (0, 1]; zero selects
	// the default 0.5. Full steps (1.0) can induce a period-2 oscillation
	// between confident shared models and over-corrected local ensembles;
	// damping is the standard fixed-point remedy.
	ServerStep float64
	// Seed makes the whole system deterministic.
	Seed int64
	// Obs attaches the observability layer: per-round spans, per-vehicle
	// training timings and the lost-upload counter. Nil (the default) disables all
	// instrumentation at near-zero cost.
	Obs *obs.Obs
}

func (c Config) validate() error {
	if c.InputSize < 1 {
		return fmt.Errorf("fl: input size %d must be >= 1", c.InputSize)
	}
	if c.LocalEpochs < 1 || c.DistillEpochs < 1 {
		return fmt.Errorf("fl: epochs (%d local, %d distill) must be >= 1", c.LocalEpochs, c.DistillEpochs)
	}
	if c.LocalRate <= 0 || c.DistillRate <= 0 {
		return fmt.Errorf("fl: learning rates (%g local, %g distill) must be positive", c.LocalRate, c.DistillRate)
	}
	if c.ServerStep < 0 || c.ServerStep > 1 {
		return fmt.Errorf("fl: server step %g outside (0, 1]", c.ServerStep)
	}
	return nil
}

// serverStep returns the damping factor with its default applied.
func (c Config) serverStep() float64 {
	if c.ServerStep == 0 {
		return 0.5
	}
	return c.ServerStep
}

// Vehicle is one FL participant with its private dataset and local model.
type Vehicle struct {
	// ID indexes the vehicle; it is also its adversary-plan key.
	ID int
	// Data is the private local dataset D_i; never leaves the vehicle.
	Data []nn.Sample
	// Model is the local working copy of the shared model.
	Model *nn.Network

	rng *rand.Rand
}

// System is a running FL deployment.
type System struct {
	cfg       Config
	shared    *nn.Network
	vehicles  []*Vehicle
	refX      [][]float64
	distiller *Distiller // the fusion centre's update step over refX
	round     int

	// Observability handles, resolved once in NewSystem so the per-round
	// and per-vehicle paths never touch the registry. trace is the
	// session trace ID (obs.TraceIDFromSeed(cfg.Seed)); zero with
	// tracing off.
	obs      *obs.Obs
	cRounds  *obs.Counter
	cDropped *obs.Counter
	hTrainNs *obs.Histogram
	trace    uint64
}

// VehicleSeed is the local-SGD shuffle seed of vehicle id in a system
// whose Config.Seed is flSeed. NewSystem seeds every vehicle this way, and
// an engine session meant to match the simulation bit for bit gives its
// ClientConfig.Seed the same value.
func VehicleSeed(flSeed int64, id int) int64 { return flSeed + 100 + int64(id) }

// NewSystem builds the deployment: one vehicle per local dataset, a shared
// model with the given activation, and the fusion centre's reference
// features used for estimation aggregation and distillation.
func NewSystem(cfg Config, localData [][]nn.Sample, refX [][]float64, act approx.Activation) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(localData) == 0 {
		return nil, fmt.Errorf("fl: need at least one vehicle dataset")
	}
	if len(refX) == 0 {
		return nil, fmt.Errorf("fl: need a non-empty reference feature set")
	}
	refX = cloneRows(refX)
	distiller, err := NewDistiller(cfg, refX)
	if err != nil {
		return nil, err
	}
	shared, err := nn.New(nn.Config{LayerSizes: []int{cfg.InputSize, 1}, Activation: act, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("fl: shared model: %w", err)
	}
	s := &System{
		cfg:       cfg,
		shared:    shared,
		refX:      refX,
		distiller: distiller,
	}
	if cfg.Obs.Enabled() {
		s.obs = cfg.Obs
		s.cRounds = cfg.Obs.Counter("fl.rounds", obs.CountOf("fl.round"))
		s.cDropped = cfg.Obs.Counter("fl.dropped_uploads", obs.SumOf("fl.round", "dropped_uploads"))
		s.hTrainNs = cfg.Obs.Histogram("fl.train_ns", obs.LatencyBuckets(), obs.SumOf("fl.vehicle", "train_ns"))
		if cfg.Obs.TraceEnabled() {
			s.trace = obs.TraceIDFromSeed(cfg.Seed)
		}
	}
	for i, data := range localData {
		if len(data) == 0 {
			return nil, fmt.Errorf("fl: vehicle %d has no local data", i)
		}
		s.vehicles = append(s.vehicles, &Vehicle{
			ID:    i,
			Data:  data,
			Model: shared.Clone(),
			rng:   rand.New(rand.NewSource(VehicleSeed(cfg.Seed, i))),
		})
	}
	return s, nil
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Shared returns the fusion centre's current shared model (live, not a
// copy — callers evaluate it between rounds).
func (s *System) Shared() *nn.Network { return s.shared }

// Scheme is the pluggable estimation-upload-and-aggregation strategy that
// distinguishes the comparison models.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// BeginRound hands the scheme the broadcast shared model at the start
	// of every round — the caller's live model, to be read during the call
	// and neither kept nor modified. Coded schemes use it for the
	// verification channel: every honest vehicle evaluates this same
	// model on its encoded share, so honest verification uploads are
	// exact evaluations of one polynomial.
	BeginRound(shared *nn.Network) error
	// Upload computes what the vehicle with the given ID sends to the
	// fusion centre from its locally-trained model. Coded schemes depend
	// on the ID: vehicle i evaluates at its own point ρ_i.
	Upload(vehicleID int, model *nn.Network) ([]float64, error)
	// Aggregate combines the received uploads, one row per vehicle, into
	// one estimation target per reference sample, in reference order. A
	// nil row marks an absent vehicle; every other row is a whole upload,
	// each value as the vehicle sent it. The targets may live in memory
	// the scheme reuses: they are valid until its next Aggregate.
	Aggregate(uploads [][]float64) ([]float64, error)
}

// UploadSink ingests one round's uploads as they arrive, so a pipelined
// driver (package node) can overlap decode work with the collection
// window instead of holding everything for the round barrier. Add is
// not safe for concurrent use — the driver feeds it from its single
// collection loop. The upload slice handed to Add must be the same row
// the round's aggregation is later given; a nil upload is a no-op.
type UploadSink interface {
	Add(vehicleID int, upload []float64) error
}

// RoundStats reports what happened during one global round.
type RoundStats struct {
	// Round is the 1-based round number.
	Round int
	// MeanLocalLoss averages the vehicles' final local training losses.
	MeanLocalLoss float64
	// Targets are the aggregated per-reference-sample estimation targets
	// the shared model was distilled toward, copied from the scheme's.
	Targets []float64
	// DistillLoss is the shared model's final distillation loss.
	DistillLoss float64
	// Verdicts holds one verdict per vehicle, by ID: Admitted, Flagged
	// (named by a scheme that reports SuspectedMalicious) or Lost.
	Verdicts []Verdict
	// DroppedUploads counts the vehicles whose upload the channel lost
	// this round, the Lost verdicts.
	DroppedUploads int
}

// RunRound executes one global round under the given scheme, adversary
// plan (nil means all-honest) and channel model (nil means perfect).
func (s *System) RunRound(scheme Scheme, plan *adversary.Plan, ch channel.Model) (*RoundStats, error) {
	if scheme == nil {
		return nil, fmt.Errorf("fl: scheme is required")
	}
	if ch == nil {
		ch = channel.Perfect{}
	}
	// Mobility-driven channels advance their simulation once per round.
	if rs, ok := ch.(interface{ RoundStart() }); ok {
		rs.RoundStart()
	}
	sharedParams := s.shared.Params()
	if err := scheme.BeginRound(s.shared); err != nil {
		return nil, fmt.Errorf("fl: scheme begin round: %w", err)
	}

	stats := &RoundStats{Round: s.round + 1, Verdicts: make([]Verdict, len(s.vehicles))}
	uploads := make([][]float64, len(s.vehicles))
	// roundCtx is the round's span context; every span this round emits
	// parents under it, and the scheme's core.aggregate span joins the
	// same tree via SetSpanParent. Zero with tracing off.
	var roundCtx obs.SpanContext
	roundFields := []obs.Field{obs.F("round", stats.Round), obs.F("scheme", scheme.Name())}
	if s.obs.TraceEnabled() {
		roundCtx = obs.SpanContext{Trace: s.trace, Span: obs.DeriveSpan(s.trace, "fl.round", uint64(stats.Round))}
		roundFields = append(roundFields, obs.CtxFields(roundCtx, 0)...)
	}
	roundSpan := s.obs.Start("fl.round", roundFields...)
	s.obs.Emit("round.start", obs.F("round", stats.Round), obs.F("vehicles", len(s.vehicles)))

	// Steps 1–3a: broadcast, local training (eq. 1), and honest upload,
	// fanned out across GOMAXPROCS goroutines. Each vehicle mutates only
	// its own model with its own RNG stream and writes only its own result
	// slot, and the adversary/channel phase below stays sequential in
	// vehicle order, so the outcome is independent of scheduling. Schemes
	// are read-only during Upload (they mutate state in
	// BeginRound/Aggregate only).
	// Per-vehicle durations are recorded into trainNs slots here and
	// emitted sequentially below, so trace event ORDER never depends on
	// pool scheduling (only the timing values do).
	honest := make([][]float64, len(s.vehicles))
	losses := make([]float64, len(s.vehicles))
	var trainNs []int64
	if s.obs.Enabled() {
		trainNs = make([]int64, len(s.vehicles))
	}
	err := parallel.ForEach(parallel.Workers(0), len(s.vehicles), func(i int) error {
		v := s.vehicles[i]
		var t0 time.Duration
		if trainNs != nil {
			t0 = s.obs.Now()
		}
		if err := v.Model.SetParams(sharedParams); err != nil {
			return fmt.Errorf("fl: vehicle %d: %w", v.ID, err)
		}
		loss, err := v.Model.TrainSGD(v.Data, s.cfg.LocalRate, s.cfg.LocalEpochs, v.rng)
		if err != nil {
			return fmt.Errorf("fl: vehicle %d training: %w", v.ID, err)
		}
		losses[i] = loss
		up, err := scheme.Upload(v.ID, v.Model)
		if err != nil {
			return fmt.Errorf("fl: vehicle %d upload: %w", v.ID, err)
		}
		honest[i] = up
		if trainNs != nil {
			trainNs[i] = int64(s.obs.Now() - t0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.obs.Enabled() {
		for i, v := range s.vehicles {
			s.hTrainNs.Observe(trainNs[i])
			if s.obs.TraceEnabled() {
				vehicleCtx := obs.SpanContext{Trace: s.trace,
					Span: obs.DeriveSpan(s.trace, "fl.vehicle", uint64(stats.Round), uint64(v.ID))}
				fields := append([]obs.Field{
					obs.F("round", stats.Round),
					obs.F("vehicle", v.ID),
					obs.F("train_ns", trainNs[i]),
					obs.F("loss", losses[i]),
				}, obs.CtxFields(vehicleCtx, roundCtx.Span)...)
				s.obs.Emit("fl.vehicle", fields...)
			}
		}
	}

	// Step 3b: adversary and channel, applied SEQUENTIALLY in vehicle
	// order, in place on each vehicle's fresh upload. The channel models
	// consume shared seeded RNG streams whose draw order is part of the
	// reproducibility contract; keeping this cheap pass off the pool
	// preserves the exact sequential stream at every worker count. A lost
	// upload leaves its vehicle's row nil.
	var lossSum float64
	for i, v := range s.vehicles {
		lossSum += losses[i]
		sent := honest[i]
		if plan != nil {
			for j, h := range sent {
				sent[j] = plan.Apply(v.ID, h)
			}
		}
		if ch.Transmit(v.ID, sent) {
			uploads[v.ID] = sent
		} else {
			stats.Verdicts[v.ID] = Lost
		}
	}
	stats.MeanLocalLoss = lossSum / float64(len(s.vehicles))

	// Step 4: the round close — aggregation and distillation update. The
	// scheme's own core.aggregate span (when it has one) nests under this
	// fl.aggregate span via SetSpanParent.
	aggFields := []obs.Field{obs.F("round", stats.Round)}
	var aggCtx obs.SpanContext
	if roundCtx.Valid() {
		aggCtx = obs.SpanContext{Trace: s.trace, Span: obs.DeriveSpan(s.trace, "fl.aggregate", uint64(stats.Round))}
		aggFields = append(aggFields, obs.CtxFields(aggCtx, roundCtx.Span)...)
	}
	if sp, ok := scheme.(interface{ SetSpanParent(obs.SpanContext) }); ok {
		sp.SetSpanParent(aggCtx)
	}
	aggSpan := s.obs.Start("fl.aggregate", aggFields...)
	targets, err := scheme.Aggregate(uploads)
	if err != nil {
		err = fmt.Errorf("fl: aggregate: %w", err)
	} else if err = CloseRound(s.distiller, s.shared, targets); err == nil {
		stats.DistillLoss, err = s.distiller.Loss(s.shared)
	}
	aggSpan.End()
	if err != nil {
		return nil, err
	}
	// The scheme may reuse the targets' memory at its next Aggregate.
	stats.Targets = slices.Clone(targets)
	if sm, ok := scheme.(interface{ SuspectedMalicious() []int }); ok {
		for _, id := range sm.SuspectedMalicious() {
			stats.Verdicts[id] = Flagged
		}
	}
	var tally Tally
	tally.Add(stats.Verdicts)
	stats.DroppedUploads = tally[Lost]
	s.round++
	if s.obs.Enabled() {
		s.cRounds.Inc()
		s.cDropped.Add(int64(stats.DroppedUploads))
	}
	roundSpan.End(
		obs.F("mean_local_loss", stats.MeanLocalLoss),
		obs.F("distill_loss", stats.DistillLoss),
		obs.F("dropped_uploads", stats.DroppedUploads))
	return stats, nil
}

// CloseRound is the fusion centre's close of one round, the one step
// System.RunRound and the networked engine (package node) share: it fits
// shared with d to targets, one per reference sample, which the caller
// aggregated from the round's admitted uploads. A round whose every
// target was dropped leaves shared still, and d.Loss then reports 0.
func CloseRound(d *Distiller, shared *nn.Network, targets []float64) error {
	// Fit checks the target count against the reference set.
	if err := d.Fit(shared, targets); err != nil && !errors.Is(err, ErrNoTargets) {
		return fmt.Errorf("fl: distillation: %w", err)
	}
	return nil
}

// Accuracy evaluates the shared model's classification accuracy on a test
// set (threshold 0.5 on the estimation result π).
func (s *System) Accuracy(test []nn.Sample) (float64, error) {
	return ModelAccuracy(s.shared, test)
}

// ModelAccuracy is Accuracy for an arbitrary model.
func ModelAccuracy(m *nn.Network, test []nn.Sample) (float64, error) {
	if len(test) == 0 {
		return 0, fmt.Errorf("fl: empty test set")
	}
	correct := 0
	for _, t := range test {
		pi, err := m.Estimate(t.X)
		if err != nil {
			return 0, err
		}
		if (pi > 0.5) == (t.Y == 1) {
			correct++
		}
	}
	return float64(correct) / float64(len(test)), nil
}

// MeanEstimate returns the mean estimation result of the shared model over
// a feature set — the per-round trace of the paper's Fig. 4.
func (s *System) MeanEstimate(features [][]float64) (float64, error) {
	if len(features) == 0 {
		return 0, fmt.Errorf("fl: empty feature set")
	}
	var sum float64
	for _, x := range features {
		pi, err := s.shared.EstimateClamped(x)
		if err != nil {
			return 0, err
		}
		sum += pi
	}
	return sum / float64(len(features)), nil
}
