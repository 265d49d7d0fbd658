// Package channel models the wireless uplink between vehicles and the
// fusion centre.
//
// The paper's "system noise" has three sources: low-quality training data,
// malicious vehicles, and wireless channel errors (paper §I, Fig. 1).
// This package supplies the third: a Model transforms a transmitted scalar
// into what the fusion centre receives — possibly dropped (straggler /
// out of coverage) or grossly corrupted (decoding the wrong codeword).
// Models compose, and every model is deterministic given its seed so
// experiments reproduce bit-for-bit.
package channel

import (
	"fmt"
	"math/rand"
)

// Reception is the outcome of transmitting one scalar result.
type Reception struct {
	// Value is the received value (meaningless when Dropped).
	Value float64
	// Dropped reports that the transmission never arrived.
	Dropped bool
}

// Model transforms transmitted values. Implementations must be
// deterministic functions of their configuration and seed.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Transmit sends one value from the given vehicle index.
	Transmit(vehicle int, value float64) Reception
}

// Perfect delivers every value unchanged.
type Perfect struct{}

// Name implements Model.
func (Perfect) Name() string { return "perfect" }

// Transmit implements Model.
func (Perfect) Transmit(_ int, v float64) Reception { return Reception{Value: v} }

// Erasure drops each transmission independently with probability P —
// stragglers and coverage gaps.
type Erasure struct {
	// P is the drop probability in [0, 1].
	P float64
	// Seed drives the deterministic RNG.
	Seed int64

	rng *rand.Rand
}

// NewErasure validates P and returns the model.
func NewErasure(p float64, seed int64) (*Erasure, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("channel: erasure probability %g outside [0,1]", p)
	}
	return &Erasure{P: p, Seed: seed, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Model.
func (e *Erasure) Name() string { return fmt.Sprintf("erasure(p=%g)", e.P) }

// Transmit implements Model.
func (e *Erasure) Transmit(_ int, v float64) Reception {
	if e.rng.Float64() < e.P {
		return Reception{Dropped: true}
	}
	return Reception{Value: v}
}

// Burst corrupts each transmission with probability P by replacing it
// with a uniform draw from [-Magnitude, Magnitude] — an undetected
// decoding error delivering garbage.
type Burst struct {
	// P is the corruption probability in [0, 1].
	P float64
	// Magnitude bounds the garbage value.
	Magnitude float64
	// Seed drives the deterministic RNG.
	Seed int64

	rng *rand.Rand
}

// NewBurst validates parameters and returns the model.
func NewBurst(p, magnitude float64, seed int64) (*Burst, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("channel: burst probability %g outside [0,1]", p)
	}
	if magnitude <= 0 {
		return nil, fmt.Errorf("channel: burst magnitude %g must be positive", magnitude)
	}
	return &Burst{P: p, Magnitude: magnitude, Seed: seed, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Model.
func (b *Burst) Name() string { return fmt.Sprintf("burst(p=%g,mag=%g)", b.P, b.Magnitude) }

// Transmit implements Model.
func (b *Burst) Transmit(_ int, v float64) Reception {
	if b.rng.Float64() < b.P {
		return Reception{Value: (2*b.rng.Float64() - 1) * b.Magnitude}
	}
	return Reception{Value: v}
}

// Chain applies models in order; a drop at any stage drops the whole
// transmission.
type Chain []Model

// Name implements Model.
func (c Chain) Name() string {
	if len(c) == 0 {
		return "perfect"
	}
	name := c[0].Name()
	for _, m := range c[1:] {
		name += "+" + m.Name()
	}
	return name
}

// Transmit implements Model.
func (c Chain) Transmit(vehicle int, v float64) Reception {
	r := Reception{Value: v}
	for _, m := range c {
		r = m.Transmit(vehicle, r.Value)
		if r.Dropped {
			return r
		}
	}
	return r
}
