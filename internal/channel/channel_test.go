package channel

import (
	"math"
	"math/rand"
	"testing"
)

func TestPerfect(t *testing.T) {
	var p Perfect
	up := []float64{3.14, 0.5}
	if !p.Transmit(0, up) || up[0] != 3.14 || up[1] != 0.5 {
		t.Errorf("Perfect changed the upload: %v", up)
	}
	if p.Name() != "perfect" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestBurst(t *testing.T) {
	b, err := NewBurst(0.5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	up := make([]float64, n)
	for i := range up {
		up[i] = 0.123456
	}
	if !b.Transmit(0, up) {
		t.Fatal("burst lost an upload")
	}
	corrupted := 0
	for _, v := range up {
		if v != 0.123456 {
			corrupted++
			if math.Abs(v) > 10 {
				t.Fatalf("burst value %g outside magnitude", v)
			}
		}
	}
	if got := float64(corrupted) / n; math.Abs(got-0.5) > 0.02 {
		t.Errorf("corruption rate %g, want ≈0.5", got)
	}
}

// TestBurstDrawOrder pins the RNG stream: per value in upload order, one
// draw to decide and, on corruption, one draw for the garbage value. It is
// the order the experiment figures were generated under.
func TestBurstDrawOrder(t *testing.T) {
	const p, mag, seed = 0.3, 10, 5
	b, err := NewBurst(p, mag, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 3; round++ {
		up := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
		want := append([]float64(nil), up...)
		for i := range want {
			if rng.Float64() < p {
				want[i] = (2*rng.Float64() - 1) * mag
			}
		}
		b.Transmit(round, up)
		for i := range up {
			if math.Float64bits(up[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d value %d: %v, want %v", round, i, up[i], want[i])
			}
		}
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
