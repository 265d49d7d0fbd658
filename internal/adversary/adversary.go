// Package adversary models the malicious vehicles of the paper's threat
// model: participants that return erroneous estimation results to the
// fusion centre (paper §III-B, "dishonest computation").
//
// A Behavior rewrites the honest result a vehicle would have uploaded.
// The selection of which vehicles are malicious is seeded and reported, so
// experiments can verify that the decoder's identified error positions
// match the planted ones.
package adversary

import (
	"fmt"
	"math/rand"
)

// Behavior rewrites an honest uplink value into a malicious one.
type Behavior interface {
	// Name identifies the behaviour in experiment output.
	Name() string
	// Corrupt returns the value the malicious vehicle reports instead of
	// the honest value. It is a pure function of its arguments: the
	// engine calls one Behavior value from every liar's goroutine, and
	// the simulation calls it in vehicle order, so both see the same lies.
	Corrupt(vehicle int, honest float64) float64
}

// ConstantLie always reports a fixed value regardless of the computation —
// the cheapest attack: skip the work, upload garbage.
type ConstantLie struct {
	// Value is the reported constant.
	Value float64
}

// Name implements Behavior.
func (c ConstantLie) Name() string { return fmt.Sprintf("constant-lie(%g)", c.Value) }

// Corrupt implements Behavior.
func (c ConstantLie) Corrupt(_ int, _ float64) float64 { return c.Value }

// SignFlipScale reports -Scale times the honest value: a gradient/estimate
// inversion attack that actively steers the aggregate away from truth.
type SignFlipScale struct {
	// Scale multiplies the negated honest value (must be positive).
	Scale float64
}

// Name implements Behavior.
func (s SignFlipScale) Name() string { return fmt.Sprintf("sign-flip(x%g)", s.Scale) }

// Corrupt implements Behavior.
func (s SignFlipScale) Corrupt(_ int, honest float64) float64 { return -s.Scale * honest }

// Plan fixes which vehicles are malicious and how they behave.
type Plan struct {
	behavior  Behavior
	malicious map[int]bool
	ids       []int
}

// NewPlan marks a deterministic random subset of ⌊fraction·numVehicles⌋
// vehicles as malicious with the given behaviour. A zero fraction yields
// an all-honest plan; fractions outside [0, 1] are rejected.
func NewPlan(numVehicles int, fraction float64, behavior Behavior, seed int64) (*Plan, error) {
	if numVehicles <= 0 {
		return nil, fmt.Errorf("adversary: vehicle count %d must be positive", numVehicles)
	}
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("adversary: malicious fraction %g outside [0,1]", fraction)
	}
	count := int(fraction * float64(numVehicles))
	if count > 0 && behavior == nil {
		return nil, fmt.Errorf("adversary: %d malicious vehicles need a behaviour", count)
	}
	p := &Plan{behavior: behavior, malicious: make(map[int]bool, count)}
	ids := rand.New(rand.NewSource(seed)).Perm(numVehicles)[:count]
	for _, id := range ids {
		p.malicious[id] = true
	}
	p.ids = append(p.ids, ids...)
	return p, nil
}

// IsMalicious reports whether vehicle id is in the malicious set.
func (p *Plan) IsMalicious(id int) bool { return p.malicious[id] }

// Count returns the number of malicious vehicles E.
func (p *Plan) Count() int { return len(p.malicious) }

// IDs returns a copy of the malicious vehicle identifiers.
func (p *Plan) IDs() []int { return append([]int(nil), p.ids...) }

// Apply returns what vehicle id actually uploads for an honest value.
func (p *Plan) Apply(id int, honest float64) float64 {
	if p.malicious[id] {
		return p.behavior.Corrupt(id, honest)
	}
	return honest
}
