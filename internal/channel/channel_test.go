package channel

import (
	"math"
	"testing"
)

func TestPerfect(t *testing.T) {
	var p Perfect
	r := p.Transmit(0, 3.14)
	if r.Dropped || r.Value != 3.14 {
		t.Errorf("Perfect changed the value: %+v", r)
	}
	if p.Name() != "perfect" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestErasureRate(t *testing.T) {
	e, err := NewErasure(0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if e.Transmit(0, 1).Dropped {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("drop rate %g, want ≈0.3", got)
	}
}

func TestErasureValidation(t *testing.T) {
	if _, err := NewErasure(-0.1, 1); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewErasure(1.1, 1); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestErasureDeterministic(t *testing.T) {
	a, _ := NewErasure(0.5, 42)
	b, _ := NewErasure(0.5, 42)
	for i := 0; i < 100; i++ {
		if a.Transmit(0, 1).Dropped != b.Transmit(0, 1).Dropped {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBurst(t *testing.T) {
	b, err := NewBurst(0.5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	const n = 10000
	for i := 0; i < n; i++ {
		r := b.Transmit(0, 0.123456)
		if r.Dropped {
			t.Fatal("burst dropped a value")
		}
		if r.Value != 0.123456 {
			corrupted++
			if math.Abs(r.Value) > 10 {
				t.Fatalf("burst value %g outside magnitude", r.Value)
			}
		}
	}
	if got := float64(corrupted) / n; math.Abs(got-0.5) > 0.02 {
		t.Errorf("corruption rate %g, want ≈0.5", got)
	}
}

func TestBurstValidation(t *testing.T) {
	if _, err := NewBurst(2, 1, 0); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := NewBurst(0.5, 0, 0); err == nil {
		t.Error("zero magnitude accepted")
	}
}

func TestChain(t *testing.T) {
	e, _ := NewErasure(1, 4) // always drops
	var a Perfect
	c := Chain{a, e}
	if !c.Transmit(0, 1).Dropped {
		t.Error("chain did not propagate drop")
	}
	clean := Chain{a}
	if got := clean.Transmit(0, 2).Value; got != 2 {
		t.Errorf("clean chain value %g", got)
	}
	if Chain(nil).Name() != "perfect" {
		t.Errorf("empty chain name %q", Chain(nil).Name())
	}
	if c.Name() != "perfect+erasure(p=1)" {
		t.Errorf("chain name %q", c.Name())
	}
	if got := Chain(nil).Transmit(0, 9); got.Dropped || got.Value != 9 {
		t.Errorf("empty chain = %+v", got)
	}
}
