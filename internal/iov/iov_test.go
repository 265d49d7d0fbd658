package iov

import (
	"math"
	"testing"
)

// ReachableCount returns how many vehicles are currently in coverage.
func (s *Scenario) ReachableCount() int {
	n := 0
	for _, a := range s.Associations() {
		if a.Reachable {
			n++
		}
	}
	return n
}

// ReachableCount reports how many vehicles can currently upload.
func (c *CoverageChannel) ReachableCount() int {
	n := 0
	for _, a := range c.assoc {
		if a.Reachable {
			n++
		}
	}
	return n
}

func TestDefaultConfigScenario(t *testing.T) {
	s, err := NewScenario(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVehicles() != 100 {
		t.Fatalf("vehicles = %d", s.NumVehicles())
	}
	// All vehicles start inside the fusion centre's 500 m coverage.
	fc := Position{750, 750}
	for i, p := range s.Positions() {
		if p.Dist(fc) > 500 {
			t.Errorf("vehicle %d starts %g m from FC", i, p.Dist(fc))
		}
	}
	if got := s.ReachableCount(); got != 100 {
		t.Errorf("initially reachable = %d, want 100", got)
	}
}

func TestScenarioValidation(t *testing.T) {
	base := DefaultConfig(1)

	cfg := base
	cfg.NumVehicles = 0
	if _, err := NewScenario(cfg); err == nil {
		t.Error("zero vehicles accepted")
	}

	cfg = base
	cfg.AreaSize = -1
	if _, err := NewScenario(cfg); err == nil {
		t.Error("negative area accepted")
	}

	cfg = base
	cfg.MinSpeed, cfg.MaxSpeed = 10, 5
	if _, err := NewScenario(cfg); err == nil {
		t.Error("inverted speed range accepted")
	}

	cfg = base
	cfg.Stations = []Station{{ID: "RSU", Pos: Position{0, 0}, Radius: 100}}
	if _, err := NewScenario(cfg); err == nil {
		t.Error("no fusion centre accepted")
	}

	cfg = base
	cfg.Stations = []Station{
		{ID: "A", Pos: Position{0, 0}, Radius: 100, IsFusionCentre: true},
		{ID: "B", Pos: Position{1, 1}, Radius: 100, IsFusionCentre: true},
	}
	if _, err := NewScenario(cfg); err == nil {
		t.Error("two fusion centres accepted")
	}

	cfg = base
	cfg.Stations = []Station{{ID: "A", Pos: Position{0, 0}, Radius: 0, IsFusionCentre: true}}
	if _, err := NewScenario(cfg); err == nil {
		t.Error("zero radius accepted")
	}
}

func TestStepMovesVehicles(t *testing.T) {
	s, err := NewScenario(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Positions()
	s.Step()
	after := s.Positions()
	moved := 0
	cfg := DefaultConfig(2)
	for i := range before {
		d := before[i].Dist(after[i])
		if d > 0 {
			moved++
		}
		if d > cfg.MaxSpeed+1e-9 {
			t.Errorf("vehicle %d moved %g m in one round (max %g)", i, d, cfg.MaxSpeed)
		}
	}
	if moved < 95 {
		t.Errorf("only %d vehicles moved", moved)
	}
	if s.Round() != 1 {
		t.Errorf("round = %d", s.Round())
	}
}

func TestVehiclesStayInArea(t *testing.T) {
	cfg := DefaultConfig(3)
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 300; r++ {
		s.Step()
		for i, p := range s.Positions() {
			if p.X < -1e-9 || p.Y < -1e-9 || p.X > cfg.AreaSize+1e-9 || p.Y > cfg.AreaSize+1e-9 {
				t.Fatalf("round %d: vehicle %d left the area: %+v", r, i, p)
			}
		}
	}
}

func TestAssociationsAndHandover(t *testing.T) {
	cfg := DefaultConfig(4)
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After enough mobility, some vehicles should be served by relays and
	// association should remain consistent with geometry.
	relayedSeen := false
	for r := 0; r < 200; r++ {
		s.Step()
		assocs := s.Associations()
		for i, a := range assocs {
			if !a.Reachable {
				continue
			}
			if a.Relayed {
				relayedSeen = true
			}
			// The reported station must actually cover the vehicle.
			var st *Station
			for j := range cfg.Stations {
				if cfg.Stations[j].ID == a.StationID {
					st = &cfg.Stations[j]
				}
			}
			if st == nil {
				t.Fatalf("unknown station %q", a.StationID)
			}
			if d := s.Positions()[i].Dist(st.Pos); d > st.Radius+1e-9 {
				t.Fatalf("vehicle %d associated to %s at distance %g > radius %g", i, st.ID, d, st.Radius)
			}
		}
	}
	if !relayedSeen {
		t.Error("no vehicle was ever served by a relay RSU in 200 rounds")
	}
}

func TestDeterministicScenario(t *testing.T) {
	a, _ := NewScenario(DefaultConfig(5))
	b, _ := NewScenario(DefaultConfig(5))
	for r := 0; r < 50; r++ {
		a.Step()
		b.Step()
	}
	pa, pb := a.Positions(), b.Positions()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPositionDist(t *testing.T) {
	if got := (Position{0, 0}).Dist(Position{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %g", got)
	}
}

func TestCoverageChannel(t *testing.T) {
	s, err := NewScenario(DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCoverageChannel(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoverageChannel(nil, nil); err == nil {
		t.Error("nil scenario accepted")
	}
	if cc.Name() != "coverage(perfect)" {
		t.Errorf("Name = %q", cc.Name())
	}
	// Initially everyone is inside the fusion centre's coverage.
	if got := cc.ReachableCount(); got != 100 {
		t.Errorf("initial reachable = %d", got)
	}
	r := cc.Transmit(0, 1.5)
	if r.Dropped || r.Value != 1.5 {
		t.Errorf("in-coverage transmit = %+v", r)
	}
	if got := cc.Transmit(-1, 1); !got.Dropped {
		t.Error("out-of-range vehicle not dropped")
	}
	// Advance mobility until someone leaves coverage; their transmissions
	// must drop while reachable vehicles still pass.
	rounds := 0
	for cc.ReachableCount() == 100 && rounds < 500 {
		cc.RoundStart()
		rounds++
	}
	if cc.ReachableCount() == 100 {
		t.Skip("no vehicle left coverage within 500 rounds (unusual seed)")
	}
	var dropped, passed bool
	for i := 0; i < 100; i++ {
		r := cc.Transmit(i, 2)
		if r.Dropped {
			dropped = true
		} else {
			passed = true
			if r.Value != 2 {
				t.Errorf("value perturbed by perfect inner channel: %g", r.Value)
			}
		}
	}
	if !dropped || !passed {
		t.Errorf("expected a mix of drops and passes (dropped=%v passed=%v)", dropped, passed)
	}
	if s.Round() != rounds {
		t.Errorf("RoundStart advanced %d mobility steps, scenario saw %d", rounds, s.Round())
	}
}

// Round returns the number of completed mobility steps.
func (s *Scenario) Round() int { return s.round }

// NumVehicles returns V.
func (s *Scenario) NumVehicles() int { return len(s.vehicles) }

// Positions returns a copy of the current vehicle positions.
func (s *Scenario) Positions() []Position {
	out := make([]Position, len(s.vehicles))
	for i, v := range s.vehicles {
		out[i] = v.Pos
	}
	return out
}
