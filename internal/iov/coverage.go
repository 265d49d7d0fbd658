package iov

import (
	"fmt"

	"repro/internal/channel"
)

// CoverageChannel is a channel.Model driven by the mobility scenario:
// a vehicle outside every station's coverage this round cannot deliver
// its upload (it is a straggler), and reachable vehicles' uploads pass
// through the wrapped inner model (perfect when nil). It implements the
// optional RoundStart hook that the FL round engine calls once per global
// round, advancing the mobility simulation exactly one step per round.
type CoverageChannel struct {
	scenario *Scenario
	inner    channel.Model
	assoc    []Association
}

// NewCoverageChannel wraps a mobility scenario (required) and an inner
// channel model (nil = perfect radio inside coverage).
func NewCoverageChannel(s *Scenario, inner channel.Model) (*CoverageChannel, error) {
	if s == nil {
		return nil, fmt.Errorf("iov: mobility scenario required")
	}
	if inner == nil {
		inner = channel.Perfect{}
	}
	return &CoverageChannel{
		scenario: s,
		inner:    inner,
		assoc:    s.Associations(),
	}, nil
}

// Name implements channel.Model.
func (c *CoverageChannel) Name() string {
	return "coverage(" + c.inner.Name() + ")"
}

// RoundStart advances the mobility simulation one step and refreshes the
// association table; the FL round engine calls it once per global round.
func (c *CoverageChannel) RoundStart() {
	c.scenario.Step()
	c.assoc = c.scenario.Associations()
}

// Transmit implements channel.Model: an out-of-coverage vehicle's upload
// is lost, without reaching the inner model; the rest pass through it.
func (c *CoverageChannel) Transmit(vehicle int, upload []float64) bool {
	if vehicle < 0 || vehicle >= len(c.assoc) || !c.assoc[vehicle].Reachable {
		return false
	}
	return c.inner.Transmit(vehicle, upload)
}
