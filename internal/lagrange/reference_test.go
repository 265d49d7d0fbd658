package lagrange

import (
	"fmt"

	"repro/internal/field"
)

// The encodings below are the references the tests hold EncodeVectors and
// the cached weight matrix to: one scalar per batch, the weight
// recurrence at an arbitrary position, and the interpolation read back at
// arbitrary targets.

// NumWorkers returns V, the number of worker evaluation points.
func (c *Coder) NumWorkers() int { return len(c.points) }

// WeightsAt returns the Lagrange basis weights p_m(z) for an arbitrary
// evaluation position z. If z coincides with a node ℓ_m the weights are
// the indicator of that node (H(ℓ_m) = X_m).
func (c *Coder) WeightsAt(z field.Element) []field.Element {
	s := newWeightScratch(len(c.nodes))
	c.weightsInto(z, s)
	return s.w
}

// WorkerWeights returns a copy of the cached basis weights p_m(ρ_i) for
// worker i.
func (c *Coder) WorkerWeights(i int) []field.Element {
	return append([]field.Element(nil), c.weights[i]...)
}

// EncodeScalars encodes scalar batches: given one field element per batch,
// it returns X̃_i = Σ_m p_m(ρ_i)·X_m for every worker.
func (c *Coder) EncodeScalars(batches []field.Element) ([]field.Element, error) {
	if len(batches) != len(c.nodes) {
		return nil, fmt.Errorf("lagrange: got %d batches, coder has %d nodes", len(batches), len(c.nodes))
	}
	out := make([]field.Element, len(c.points))
	for i := range out {
		out[i] = field.DotAcc(c.weights[i], batches)
	}
	return out, nil
}

// EvalAtNodes evaluates the degree-(M-1) interpolation of the given batch
// values at arbitrary targets — used by the decoder to read off
// C(X_m) = C(H(ℓ_m)) from the reconstructed composition polynomial.
func (c *Coder) EvalAtNodes(batches []field.Element, targets []field.Element) ([]field.Element, error) {
	if len(batches) != len(c.nodes) {
		return nil, fmt.Errorf("lagrange: got %d batches, coder has %d nodes", len(batches), len(c.nodes))
	}
	out := make([]field.Element, len(targets))
	// Targets are arbitrary (not the fixed worker points), so their
	// weights cannot come from the cache.
	s := newWeightScratch(len(c.nodes))
	for t := range out {
		c.weightsInto(targets[t], s)
		out[t] = field.DotAcc(s.w, batches)
	}
	return out, nil
}

// NumBatches returns M, the number of interpolation nodes.
func (c *Coder) NumBatches() int { return len(c.nodes) }
