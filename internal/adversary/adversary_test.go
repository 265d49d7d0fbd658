package adversary

import "testing"

func TestConstantLie(t *testing.T) {
	b := ConstantLie{Value: 0.9}
	if got := b.Corrupt(3, -0.5); got != 0.9 {
		t.Errorf("Corrupt = %g", got)
	}
}

func TestSignFlipScale(t *testing.T) {
	b := SignFlipScale{Scale: 3}
	if got := b.Corrupt(0, 0.5); got != -1.5 {
		t.Errorf("Corrupt = %g", got)
	}
}

func TestPlanSelection(t *testing.T) {
	p, err := NewPlan(100, 0.3, ConstantLie{Value: 1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 30 {
		t.Fatalf("Count = %d, want 30", p.Count())
	}
	if len(p.IDs()) != 30 {
		t.Fatalf("IDs = %d", len(p.IDs()))
	}
	seen := map[int]bool{}
	for _, id := range p.IDs() {
		if id < 0 || id >= 100 {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		if !p.IsMalicious(id) {
			t.Fatalf("IDs/IsMalicious disagree for %d", id)
		}
	}
}

func TestPlanApply(t *testing.T) {
	p, err := NewPlan(10, 0.5, ConstantLie{Value: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 10; id++ {
		got := p.Apply(id, 0.25)
		if p.IsMalicious(id) && got != 9 {
			t.Errorf("malicious %d reported %g", id, got)
		}
		if !p.IsMalicious(id) && got != 0.25 {
			t.Errorf("honest %d reported %g", id, got)
		}
	}
}

func TestPlanHonest(t *testing.T) {
	p, err := NewPlan(10, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 0 {
		t.Errorf("Count = %d", p.Count())
	}
	if got := p.Apply(0, 0.7); got != 0.7 {
		t.Errorf("honest plan changed value to %g", got)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 0.5, ConstantLie{}, 1); err == nil {
		t.Error("zero vehicles accepted")
	}
	if _, err := NewPlan(10, -0.1, ConstantLie{}, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := NewPlan(10, 1.5, ConstantLie{}, 1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := NewPlan(10, 0.5, nil, 1); err == nil {
		t.Error("nil behaviour with positive fraction accepted")
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, _ := NewPlan(50, 0.4, ConstantLie{}, 9)
	b, _ := NewPlan(50, 0.4, ConstantLie{}, 9)
	ia, ib := a.IDs(), b.IDs()
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("same seed selected different vehicles")
		}
	}
}

func TestBehaviorNames(t *testing.T) {
	for _, b := range []Behavior{ConstantLie{Value: 1}, SignFlipScale{Scale: 2}} {
		if b.Name() == "" {
			t.Errorf("%T has empty name", b)
		}
	}
}
