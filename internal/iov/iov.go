// Package iov simulates the vehicular scenario of the paper's evaluation:
// a fusion centre hosted at a base station, roadside units acting as
// relays, and vehicles moving on an urban area, attached to whichever
// station covers them (paper §VI: 100 vehicles placed randomly within the
// 500-metre coverage of a BS, switching between BSs/RSUs as they move).
//
// The simulation advances in rounds. Each round every vehicle moves by a
// random-waypoint step; a vehicle inside some station's coverage is
// reachable (its uplink result can arrive at the fusion centre, possibly
// via an RSU relay), otherwise it behaves as a straggler for that round.
package iov

import (
	"fmt"
	"math"
	"math/rand"
)

// Position is a planar coordinate in metres.
type Position struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two positions.
func (p Position) Dist(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Station is a base station or roadside unit with circular coverage.
type Station struct {
	// ID names the station in association reports.
	ID string
	// Pos is the station location.
	Pos Position
	// Radius is the coverage radius in metres (the paper uses 500 m).
	Radius float64
	// IsFusionCentre marks the station hosting the fusion centre; the
	// others relay.
	IsFusionCentre bool
}

// Vehicle is a mobile node with random-waypoint mobility.
type Vehicle struct {
	// ID is the vehicle index.
	ID int
	// Pos is the current position.
	Pos Position

	waypoint Position
	speed    float64 // metres per round
}

// Config parameterises the scenario.
type Config struct {
	// NumVehicles is V (paper default 100).
	NumVehicles int
	// AreaSize is the side of the square simulation area in metres.
	AreaSize float64
	// Stations places the radio infrastructure; exactly one must be the
	// fusion centre.
	Stations []Station
	// MinSpeed and MaxSpeed bound per-round vehicle displacement.
	MinSpeed, MaxSpeed float64
	// Seed makes the scenario deterministic.
	Seed int64
}

// DefaultConfig reproduces the paper's setting: a 1500 m square, one
// fusion-centre BS in the centre with 500 m coverage, four relay RSUs at
// the quadrant centres, and 100 vehicles.
func DefaultConfig(seed int64) Config {
	return Config{
		NumVehicles: 100,
		AreaSize:    1500,
		Stations: []Station{
			{ID: "BS-0", Pos: Position{750, 750}, Radius: 500, IsFusionCentre: true},
			{ID: "RSU-1", Pos: Position{375, 375}, Radius: 350},
			{ID: "RSU-2", Pos: Position{1125, 375}, Radius: 350},
			{ID: "RSU-3", Pos: Position{375, 1125}, Radius: 350},
			{ID: "RSU-4", Pos: Position{1125, 1125}, Radius: 350},
		},
		MinSpeed: 5,
		MaxSpeed: 25,
		Seed:     seed,
	}
}

// Scenario is a running mobility simulation.
type Scenario struct {
	cfg      Config
	vehicles []Vehicle
	rng      *rand.Rand
	round    int
}

// NewScenario validates cfg and places the vehicles uniformly at random
// inside the fusion centre's coverage, as in the paper's setup.
func NewScenario(cfg Config) (*Scenario, error) {
	if cfg.NumVehicles <= 0 {
		return nil, fmt.Errorf("iov: vehicle count %d must be positive", cfg.NumVehicles)
	}
	if cfg.AreaSize <= 0 {
		return nil, fmt.Errorf("iov: area size %g must be positive", cfg.AreaSize)
	}
	if cfg.MinSpeed < 0 || cfg.MaxSpeed < cfg.MinSpeed {
		return nil, fmt.Errorf("iov: invalid speed range [%g, %g]", cfg.MinSpeed, cfg.MaxSpeed)
	}
	var fc *Station
	for i := range cfg.Stations {
		if cfg.Stations[i].IsFusionCentre {
			if fc != nil {
				return nil, fmt.Errorf("iov: more than one fusion centre")
			}
			fc = &cfg.Stations[i]
		}
		if cfg.Stations[i].Radius <= 0 {
			return nil, fmt.Errorf("iov: station %s has non-positive radius", cfg.Stations[i].ID)
		}
	}
	if fc == nil {
		return nil, fmt.Errorf("iov: no fusion centre among %d stations", len(cfg.Stations))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Scenario{cfg: cfg, rng: rng}
	for i := 0; i < cfg.NumVehicles; i++ {
		// Rejection-sample a start position inside the FC coverage.
		var pos Position
		for {
			pos = Position{
				X: fc.Pos.X + (2*rng.Float64()-1)*fc.Radius,
				Y: fc.Pos.Y + (2*rng.Float64()-1)*fc.Radius,
			}
			if pos.Dist(fc.Pos) <= fc.Radius && s.inArea(pos) {
				break
			}
		}
		v := Vehicle{ID: i, Pos: pos}
		s.assignWaypoint(&v)
		s.vehicles = append(s.vehicles, v)
	}
	return s, nil
}

func (s *Scenario) inArea(p Position) bool {
	return p.X >= 0 && p.Y >= 0 && p.X <= s.cfg.AreaSize && p.Y <= s.cfg.AreaSize
}

func (s *Scenario) assignWaypoint(v *Vehicle) {
	v.waypoint = Position{
		X: s.rng.Float64() * s.cfg.AreaSize,
		Y: s.rng.Float64() * s.cfg.AreaSize,
	}
	v.speed = s.cfg.MinSpeed + s.rng.Float64()*(s.cfg.MaxSpeed-s.cfg.MinSpeed)
}

// Step advances every vehicle one random-waypoint move.
func (s *Scenario) Step() {
	for i := range s.vehicles {
		v := &s.vehicles[i]
		d := v.Pos.Dist(v.waypoint)
		if d <= v.speed {
			v.Pos = v.waypoint
			s.assignWaypoint(v)
			continue
		}
		f := v.speed / d
		v.Pos.X += (v.waypoint.X - v.Pos.X) * f
		v.Pos.Y += (v.waypoint.Y - v.Pos.Y) * f
	}
	s.round++
}

// Association describes which station (if any) serves a vehicle this
// round.
type Association struct {
	// StationID is the serving station, empty when out of coverage.
	StationID string
	// Relayed is true when the serving station is not the fusion centre.
	Relayed bool
	// Reachable is true when some station covers the vehicle.
	Reachable bool
}

// Associations computes the per-vehicle association table: each vehicle
// attaches to the nearest station whose coverage contains it, preferring
// the fusion centre on ties.
func (s *Scenario) Associations() []Association {
	out := make([]Association, len(s.vehicles))
	for i, v := range s.vehicles {
		bestDist := math.Inf(1)
		var best *Station
		for j := range s.cfg.Stations {
			st := &s.cfg.Stations[j]
			d := v.Pos.Dist(st.Pos)
			if d > st.Radius {
				continue
			}
			if d < bestDist || (d == bestDist && st.IsFusionCentre) {
				bestDist, best = d, st
			}
		}
		if best != nil {
			out[i] = Association{
				StationID: best.ID,
				Relayed:   !best.IsFusionCentre,
				Reachable: true,
			}
		}
	}
	return out
}
