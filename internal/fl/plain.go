package fl

import (
	"fmt"

	"repro/internal/nn"
)

// PlainScheme is the uncoded estimation pipeline of the Plain-FL and
// Approximation-only-FL comparison models (paper §VI): every vehicle
// evaluates its locally-trained model on every raw reference sample and
// the fusion centre averages the received estimates per sample (eq. 2).
// It has no defence: malicious values and channel noise flow straight
// into the average.
type PlainScheme struct {
	refX [][]float64
}

// NewPlainScheme builds the scheme over the fusion centre's reference
// features.
func NewPlainScheme(refX [][]float64) (*PlainScheme, error) {
	if len(refX) == 0 {
		return nil, fmt.Errorf("fl: plain scheme needs reference features")
	}
	return &PlainScheme{refX: cloneRows(refX)}, nil
}

// Name implements Scheme.
func (p *PlainScheme) Name() string { return "plain" }

// BeginRound implements Scheme; the uncoded pipeline has no verification
// channel and ignores the broadcast model.
func (p *PlainScheme) BeginRound(*nn.Network) error { return nil }

// Upload implements Scheme: the vehicle's estimation π for every
// reference sample. The vehicle ID is irrelevant to the uncoded pipeline.
func (p *PlainScheme) Upload(_ int, model *nn.Network) ([]float64, error) {
	out := make([]float64, len(p.refX))
	for j, x := range p.refX {
		pi, err := model.EstimateClamped(x)
		if err != nil {
			return nil, err
		}
		out[j] = pi
	}
	return out, nil
}

// Aggregate implements Scheme: the per-sample mean of the present
// vehicles' estimates. A round with no vehicle present aggregates every
// sample to Dropped.
func (p *PlainScheme) Aggregate(uploads [][]float64) ([]float64, error) {
	out := make([]float64, len(p.refX))
	present := 0
	for v, up := range uploads {
		if up == nil {
			continue // vehicle absent this round
		}
		if len(up) != len(out) {
			return nil, fmt.Errorf("fl: vehicle %d uploaded %d values, want %d", v, len(up), len(out))
		}
		present++
		for j, val := range up {
			out[j] += val
		}
	}
	for j := range out {
		if present == 0 {
			out[j] = Dropped
		} else {
			out[j] /= float64(present)
		}
	}
	return out, nil
}
