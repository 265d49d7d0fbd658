package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/fl"
	"repro/internal/node"
	"repro/internal/traffic"
)

// Deployment is a Scenario in the round engine's form.
type Deployment struct {
	// Server configures the fusion centre.
	Server node.ServerConfig
	// Clients configures vehicle i at index i.
	Clients []node.ClientConfig
	// Test is the held-out split Run scores the shared model on.
	Test *traffic.Dataset
	// Plan names the liars, whose Clients corrupt their uploads; a driver
	// of the simulation hands it to fl.System.RunRound. Nil when nobody
	// lies.
	Plan *adversary.Plan
}

// Deploy returns the engine form of exactly what Run(LCoFL) builds: the
// same data, partitions, reference set, activation, rates and seeds, with
// vehicle i seeded fl.VehicleSeed(FL.Seed, i) as fl.System seeds it and
// every planted liar corrupting its uploads with the constant lie. A
// node.Server session over these configs in which every upload arrives ends on
// Run(LCoFL)'s final parameters and flags the same vehicles (DESIGN.md
// §14). The engine has no channel model and no mobility, so a scenario
// with either is an error; PlainInputNoise concerns PlainFL only and is
// ignored, as Run(LCoFL) ignores it.
func (s Scenario) Deploy() (*Deployment, error) {
	sc := s.withDefaults()
	if sc.Channel != nil || sc.Mobility {
		return nil, fmt.Errorf("experiments: the round engine cannot deploy a channel model or mobility")
	}
	b, err := sc.build(LCoFL)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Server: node.ServerConfig{
			FL:               b.fl,
			Scheme:           b.scheme,
			RefX:             b.refX,
			ActivationCoeffs: b.act.Poly,
			Rounds:           sc.Rounds,
			Obs:              sc.Obs,
		},
		Clients: make([]node.ClientConfig, len(b.parts)),
		Test:    b.test,
		Plan:    b.plan,
	}
	for i, data := range b.parts {
		d.Clients[i] = node.ClientConfig{VehicleID: i, Data: data, Seed: fl.VehicleSeed(b.fl.Seed, i)}
		if b.plan != nil && b.plan.IsMalicious(i) {
			d.Clients[i].Corrupt = adversary.ConstantLie{Value: lie}
		}
	}
	return d, nil
}
