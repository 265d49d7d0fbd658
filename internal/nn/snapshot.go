package nn

import (
	"encoding/json"
	"fmt"

	"repro/internal/approx"
	"repro/internal/poly"
)

// Snapshot is a serialisable image of a network: its shape, flat
// parameters, and the activation (as polynomial coefficients, or empty
// for the exact symmetric sigmoid). It marshals to JSON with
// encoding/json, giving models a stable wire/disk format.
type Snapshot struct {
	// LayerSizes is the shape, [in, 1]; FromSnapshot refuses any other.
	LayerSizes []int `json:"layer_sizes"`
	// Params is the flat parameter vector (Params layout).
	Params []float64 `json:"params"`
	// ActivationPoly holds polynomial activation coefficients; empty
	// means the exact symmetric sigmoid of paper eq. 10.
	ActivationPoly []float64 `json:"activation_poly,omitempty"`
}

// Snapshot captures the network's current state.
func (n *Network) Snapshot() Snapshot {
	s := Snapshot{
		LayerSizes: n.Sizes(),
		Params:     n.Params(),
	}
	if p := n.act.Poly; p != nil {
		s.ActivationPoly = append([]float64(nil), p...)
	}
	return s
}

// FromSnapshot reconstructs a network. The activation is rebuilt from the
// stored polynomial, or the exact symmetric sigmoid when none is stored.
func FromSnapshot(s Snapshot) (*Network, error) {
	var act approx.Activation
	if len(s.ActivationPoly) > 0 {
		act = approx.FromPolynomial("snapshot-poly", poly.NewReal(s.ActivationPoly...))
	} else {
		act = approx.SymmetricSigmoid()
	}
	n, err := New(Config{LayerSizes: s.LayerSizes, Activation: act})
	if err != nil {
		return nil, fmt.Errorf("nn: snapshot: %w", err)
	}
	if err := n.SetParams(s.Params); err != nil {
		return nil, fmt.Errorf("nn: snapshot: %w", err)
	}
	return n, nil
}

// UnmarshalNetworkJSON parses a Snapshot's JSON (as encoding/json writes
// it) into a network; a Network must be constructed, not zero-valued, so
// there is no UnmarshalJSON method.
func UnmarshalNetworkJSON(data []byte) (*Network, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("nn: unmarshal snapshot: %w", err)
	}
	return FromSnapshot(s)
}
