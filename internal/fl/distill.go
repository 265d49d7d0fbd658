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
// oscillation.
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

	// The factorisation and the row set it was built for (empty before
	// the first, and after a factorisation failed). refactors counts the
	// builds.
	fact      []int
	ridge     *linalg.Ridge
	refactors int

	z, wb []float64
}

// NewDistiller builds the update step over a reference set (aliased, not
// copied) whose rows must each carry cfg.InputSize finite features. A
// NaN or infinite feature is refused: it leaves the ridge system without
// a pivot, and so every round that keeps its row without a fit.
func NewDistiller(cfg Config, refX [][]float64) (*Distiller, error) {
	for i, x := range refX {
		if len(x) != cfg.InputSize {
			return nil, fmt.Errorf("fl: reference sample %d has %d features, want %d", i, len(x), cfg.InputSize)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("fl: reference sample %d feature %d is %v, want a finite value", i, j, v)
			}
		}
	}
	return &Distiller{cfg: cfg, refX: refX}, nil
}

// Fit updates shared toward the round's aggregate targets, one per
// reference row in reference order: a Dropped target excludes its row,
// the rest are clamped to [0, 1]. It returns ErrNoTargets when every
// target was dropped, and an error, leaving shared untouched, when the
// kept rows' ridge system cannot be factorised. In steady state — the
// kept rows those of the previous call — Fit allocates nothing.
// Loss reports how well the fit did; a caller that does not need that
// number does not pay for it.
func (d *Distiller) Fit(shared *nn.Network, targets []float64) error {
	if len(targets) != len(d.refX) {
		return fmt.Errorf("fl: %d targets for %d reference samples", len(targets), len(d.refX))
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
		return ErrNoTargets
	}
	return d.fit(shared)
}

// Loss returns shared's mean distillation loss (eq. 11) over the rows the
// last Fit kept, against their clamped targets, summed in reference
// order; it is 0 when that Fit kept none.
func (d *Distiller) Loss(shared *nn.Network) (float64, error) {
	if len(d.rows) == 0 {
		return 0, nil
	}
	var total float64
	for k, j := range d.rows {
		l, err := shared.Loss(d.refX[j], d.y[k])
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(len(d.rows)), nil
}

// Distill is the one-shot form of the update step: a Distiller over the
// samples' features, fitted once to their labels (taken as given, not
// clamped), returning its Loss. The distributed runtime and fl.System hold a Distiller
// instead; Distill serves callers with a single sample set.
func Distill(shared *nn.Network, cfg Config, samples []nn.Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("fl: no distillation samples")
	}
	n := len(samples)
	refX, rows, y := make([][]float64, n), make([]int, n), make([]float64, n)
	for i, smp := range samples {
		refX[i], rows[i], y[i] = smp.X, i, smp.Y
	}
	d, err := NewDistiller(cfg, refX)
	if err != nil {
		return 0, err
	}
	d.rows, d.y = rows, y
	if err := d.fit(shared); err != nil {
		return 0, err
	}
	return d.Loss(shared)
}

// fit is the update on the rows and targets already gathered into d.
func (d *Distiller) fit(shared *nn.Network) error {
	if !slices.Equal(d.rows, d.fact) { // rows is never empty here
		if err := d.factor(); err != nil {
			return err
		}
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
	return shared.SetParams(wb)
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
// With λ > 0 on the diagonal the system lacks a pivot only when AᵀA does
// not hold finite values — a feature so large that its square overflows
// (NewDistiller has refused non-finite ones) — and then factor fails and
// forgets the old row set, so the next fit factors afresh.
func (d *Distiller) factor() error {
	n, in := len(d.rows), d.cfg.InputSize
	a := linalg.NewMatrix(n, in+1)
	for i, j := range d.rows {
		row := a.RowView(i)
		copy(row, d.refX[j])
		row[in] = 1
	}
	ridge, err := linalg.NewRidge(a, 1e-3*float64(n))
	if err != nil {
		d.ridge, d.fact = nil, d.fact[:0]
		return fmt.Errorf("fl: distillation fit over %d rows: %w", n, err)
	}
	d.ridge = ridge
	d.fact = append(d.fact[:0], d.rows...)
	d.refactors++
	if cap(d.z) < n {
		d.z = make([]float64, n)
	}
	if d.wb == nil {
		d.wb = make([]float64, in+1)
	}
	return nil
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
