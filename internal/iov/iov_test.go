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

// countingModel is a perfect inner channel that counts the uploads it
// is handed.
type countingModel struct{ calls int }

func (*countingModel) Name() string { return "counting" }

func (m *countingModel) Transmit(int, []float64) bool {
	m.calls++
	return true
}

func TestCoverageChannel(t *testing.T) {
	s, err := NewScenario(DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoverageChannel(nil, nil); err == nil {
		t.Error("nil scenario accepted")
	}
	if perfect, err := NewCoverageChannel(s, nil); err != nil || perfect.Name() != "coverage(perfect)" {
		t.Fatalf("nil inner: %v, %v", perfect, err)
	}
	inner := &countingModel{}
	cc, err := NewCoverageChannel(s, inner)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Name() != "coverage(counting)" {
		t.Errorf("Name = %q", cc.Name())
	}
	// Initially everyone is inside the fusion centre's coverage.
	if got := cc.ReachableCount(); got != 100 {
		t.Errorf("initial reachable = %d", got)
	}
	up := []float64{1.5, 0.25}
	if !cc.Transmit(0, up) || up[0] != 1.5 || up[1] != 0.25 || inner.calls != 1 {
		t.Errorf("in-coverage transmit: upload %v, inner calls %d", up, inner.calls)
	}
	if cc.Transmit(-1, up) || inner.calls != 1 {
		t.Errorf("out-of-range vehicle delivered (inner calls %d)", inner.calls)
	}
	// Advance mobility until someone leaves coverage; their uploads must
	// be lost whole, without reaching the inner model, while reachable
	// vehicles' uploads still pass.
	rounds := 0
	for cc.ReachableCount() == 100 && rounds < 500 {
		cc.RoundStart()
		rounds++
	}
	if cc.ReachableCount() == 100 {
		t.Skip("no vehicle left coverage within 500 rounds (unusual seed)")
	}
	inner.calls = 0
	passed := 0
	for i := 0; i < 100; i++ {
		up := []float64{2}
		if cc.Transmit(i, up) {
			passed++
			if up[0] != 2 {
				t.Errorf("value perturbed by a perfect inner channel: %g", up[0])
			}
		}
	}
	if passed == 0 || passed == 100 || passed != cc.ReachableCount() {
		t.Errorf("%d uploads passed, %d vehicles reachable: want a mix, equal", passed, cc.ReachableCount())
	}
	if inner.calls != passed {
		t.Errorf("inner model handed %d uploads, %d passed", inner.calls, passed)
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
