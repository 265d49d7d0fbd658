package fl

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/linalg"
	"repro/internal/nn"
)

// ErrNoTargets is Distiller.Fit's answer to a round whose every target
// was dropped: there is nothing to fit, and the model is left untouched.
var ErrNoTargets = errors.New("fl: no usable estimation targets")

// Distiller is the fusion centre's update step — fit the shared model to
// the round's per-reference-sample estimation targets (federated
// distillation, DESIGN.md §1(b)) — held across rounds for one reference
// set. For the paper's single-nonlinear-layer model the fit has a closed
// form: invert the activation on the targets (π = (1+tanh(z/2))/2 ⇒
// z = 2·artanh(2π−1)) and solve the ridge least-squares problem for the
// weights, which is deterministic and free of gradient-descent
// oscillation. Deeper baseline models fall back to full-batch gradient
// descent.
//
// The design matrix of that problem is the reference rows whose targets
// survived the round, and from one round to the next that set rarely
// changes: the Distiller forms and eliminates the normal equations once
// per kept-row set (linalg.Ridge) and replays the elimination on each
// round's z, refactoring only when the set changes. A Fit is bit-identical
// to a fresh Distill on the same samples (DESIGN.md §13.7).
//
// A Distiller is not safe for concurrent use. It aliases the reference
// rows it was built from; they must not change while it is in use.
type Distiller struct {
	cfg  Config
	refX [][]float64

	// This fit's rows (indices into refX) and their targets.
	rows []int
	y    []float64

	// The factorisation and the row set it was built for (nil before the
	// first); ridge is nil when that set's normal equations are singular
	// (gradient-descent fallback). refactors counts the builds.
	fact      []int
	ridge     *linalg.Ridge
	refactors int

	z, wb    []float64
	fallback []nn.Sample
}

// NewDistiller builds the update step over a reference set (aliased, not
// copied) whose rows must each carry cfg.InputSize features.
func NewDistiller(cfg Config, refX [][]float64) (*Distiller, error) {
	for i, x := range refX {
		if len(x) != cfg.InputSize {
			return nil, fmt.Errorf("fl: reference sample %d has %d features, want %d", i, len(x), cfg.InputSize)
		}
	}
	return &Distiller{cfg: cfg, refX: refX}, nil
}

// Fit updates shared toward the round's aggregate targets, one per
// reference row in reference order: a Dropped target excludes its row,
// the rest are clamped to [0, 1]. It returns the shared model's mean
// distillation loss over the kept rows, or ErrNoTargets when every target
// was dropped. In steady state — the kept rows those of the previous
// call, the single-layer closed form — Fit allocates nothing.
func (d *Distiller) Fit(shared *nn.Network, targets []float64) (float64, error) {
	if len(targets) != len(d.refX) {
		return 0, fmt.Errorf("fl: %d targets for %d reference samples", len(targets), len(d.refX))
	}
	d.rows, d.y = d.rows[:0], d.y[:0]
	for j, t := range targets {
		if IsDropped(t) {
			continue // aggregation could not recover this sample
		}
		d.rows = append(d.rows, j)
		d.y = append(d.y, clamp01(t))
	}
	if len(d.rows) == 0 {
		return 0, ErrNoTargets
	}
	return d.fit(shared)
}

// Distill is the one-shot form of the update step: a Distiller over the
// samples' features, fitted once to their labels (taken as given, not
// clamped). The distributed runtime and fl.System hold a Distiller
// instead; Distill serves callers with a single sample set.
func Distill(shared *nn.Network, cfg Config, samples []nn.Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("fl: no distillation samples")
	}
	d := &Distiller{cfg: cfg, refX: make([][]float64, len(samples)),
		rows: make([]int, len(samples)), y: make([]float64, len(samples))}
	for i, smp := range samples {
		if len(smp.X) != cfg.InputSize {
			return 0, fmt.Errorf("fl: distillation sample %d has %d features, want %d", i, len(smp.X), cfg.InputSize)
		}
		d.refX[i], d.rows[i], d.y[i] = smp.X, i, smp.Y
	}
	return d.fit(shared)
}

// fit is the update on the rows and targets already gathered into d.
func (d *Distiller) fit(shared *nn.Network) (float64, error) {
	if len(d.cfg.Hidden) != 0 {
		return d.fullBatch(shared)
	}
	if !slices.Equal(d.rows, d.fact) { // rows is never empty here
		d.factor()
	}
	if d.ridge == nil {
		// Degenerate reference geometry: fall back to gradient descent.
		return d.fullBatch(shared)
	}
	n := len(d.rows)
	// The logit fit must stay inside the activation's valid range. The
	// exact symmetric sigmoid is monotone everywhere, so ±3.9 (π clamped
	// to [0.02, 0.98]) is fine; a polynomial approximation is only
	// faithful on its fit interval (the paper's [-2, 2]) and turns
	// non-monotone beyond it — target logits outside that range would
	// drive pre-activations into the region where the polynomial
	// decreases again and scramble the model's predictions.
	zmax := 3.9
	if shared.Activation().Poly != nil {
		zmax = 2
	}
	piMax := (1 + math.Tanh(zmax/2)) / 2
	z := d.z[:n]
	for k, y := range d.y {
		pi := math.Min(piMax, math.Max(1-piMax, y))
		z[k] = 2 * math.Atanh(2*pi-1)
	}
	wb := d.wb
	d.ridge.SolveInto(wb, z)
	// Damped server update: move partway from the current parameters to
	// the closed-form fit.
	alpha := d.cfg.serverStep()
	old := shared.ParamsView()
	for i := range wb {
		wb[i] = old[i] + alpha*(wb[i]-old[i])
	}
	if err := shared.SetParams(wb); err != nil {
		return 0, err
	}
	var total float64
	for k, j := range d.rows {
		l, err := shared.Loss(d.refX[j], d.y[k])
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(n), nil
}

// factor forms the design matrix of the current rows — features, then a
// bias column of ones — and eliminates its ridge normal equations.
//
// Ridge regularisation keeps the fit well-posed when a rare-event feature
// is constant over the reference set (collinear with bias), and — equally
// important — keeps the weight vector bounded along nearly-collinear
// feature directions. Unregularised weights can grow huge there while
// cancelling on the data manifold; Lagrange-encoded inputs leave that
// manifold, so runaway weights would make honest encoded estimations
// explode. λ scales with the sample count to track the magnitude of AᵀA.
func (d *Distiller) factor() {
	n, in := len(d.rows), d.cfg.InputSize
	a := linalg.NewMatrix(n, in+1)
	for i, j := range d.rows {
		row := a.RowView(i)
		copy(row, d.refX[j])
		row[in] = 1
	}
	// A singular system leaves ridge nil, and fit falls back.
	d.ridge, _ = linalg.NewRidge(a, 1e-3*float64(n))
	d.fact = append(d.fact[:0], d.rows...)
	d.refactors++
	if cap(d.z) < n {
		d.z = make([]float64, n)
	}
	if d.wb == nil {
		d.wb = make([]float64, in+1)
	}
}

// fullBatch is the gradient-descent update on the current rows.
func (d *Distiller) fullBatch(shared *nn.Network) (float64, error) {
	d.fallback = d.fallback[:0]
	for k, j := range d.rows {
		d.fallback = append(d.fallback, nn.Sample{X: d.refX[j], Y: d.y[k]})
	}
	return shared.TrainFullBatch(d.fallback, d.cfg.DistillRate, d.cfg.DistillEpochs)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
