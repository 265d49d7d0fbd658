// Package channel models the wireless uplink between vehicles and the
// fusion centre.
//
// The paper's "system noise" has three sources: low-quality training data,
// malicious vehicles, and wireless channel errors (paper §I, Fig. 1).
// This package supplies the third: a Model carries one vehicle's whole
// upload to the fusion centre. It may corrupt values in place (decoding
// the wrong codeword), or lose the upload whole (a vehicle out of
// coverage, iov.CoverageChannel). It never loses part of one: an upload
// arrives whole or not at all. Every model is deterministic given its
// seed so experiments reproduce bit-for-bit.
package channel

import (
	"fmt"
	"math/rand"
)

// Model transmits uploads. Implementations must be deterministic
// functions of their configuration and seed.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Transmit sends the given vehicle's upload, corrupting it in place,
	// and reports whether it arrived: false means the fusion centre hears
	// nothing from the vehicle this round.
	Transmit(vehicle int, upload []float64) bool
}

// Perfect delivers every upload unchanged.
type Perfect struct{}

// Name implements Model.
func (Perfect) Name() string { return "perfect" }

// Transmit implements Model.
func (Perfect) Transmit(int, []float64) bool { return true }

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

// Transmit implements Model: each value in turn is corrupted with
// probability P, and the upload always arrives.
func (b *Burst) Transmit(_ int, upload []float64) bool {
	for i := range upload {
		if b.rng.Float64() < b.P {
			upload[i] = (2*b.rng.Float64() - 1) * b.Magnitude
		}
	}
	return true
}
