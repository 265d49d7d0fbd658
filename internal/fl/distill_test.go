package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/linalg"
	"repro/internal/nn"
	"repro/internal/traffic"
)

// distillRef returns n reference rows of synthetic traffic features.
func distillRef(tb testing.TB, n int) [][]float64 {
	tb.Helper()
	ds, err := traffic.Generate(traffic.GenConfig{Rows: n, Seed: int64(40 + n)})
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Features()
}

// distillNet builds the fit's model: [F, hidden…, 1] with the given
// activation.
func distillNet(tb testing.TB, act approx.Activation, hidden []int) *nn.Network {
	tb.Helper()
	sizes := append(append([]int{traffic.NumFeatures}, hidden...), 1)
	net, err := nn.New(nn.Config{LayerSizes: sizes, Activation: act, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// TestDistillerMatchesDistill: a Distiller held across rounds and a fresh
// Distill each round, on two copies of one model, end every round on the
// same bits — parameters and loss — through steady rounds, a round that
// drops targets and the round that restores them (which must refactor,
// and only those), an all-dropped round, both activation families, and
// the hidden-layer fallback (which never factors).
func TestDistillerMatchesDistill(t *testing.T) {
	poly, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name   string
		act    approx.Activation
		hidden []int
	}{
		{"exact", approx.SymmetricSigmoid(), nil},
		{"poly", approx.FromPolynomial("ls2", poly), nil},
		{"hidden", approx.SymmetricSigmoid(), []int{4}},
	}
	const rounds = 24
	const dropRound, allDropped = 7, 15 // dropRound+1 restores the rows
	for _, n := range []int{64, 192, 768} {
		refX := distillRef(t, n)
		for _, m := range models {
			t.Run(fmt.Sprintf("%s/n=%d", m.name, n), func(t *testing.T) {
				cfg := testConfig()
				cfg.Hidden = m.hidden
				cfg.DistillEpochs = 3
				d, err := NewDistiller(cfg, refX)
				if err != nil {
					t.Fatal(err)
				}
				held := distillNet(t, m.act, m.hidden)
				fresh := held.Clone()
				rng := rand.New(rand.NewSource(int64(n)))
				targets := make([]float64, n)
				wantRefactors := 0
				for r := 0; r < rounds; r++ {
					// Targets a little outside [0, 1], so the clamp is exercised.
					for j := range targets {
						targets[j] = rng.Float64()*1.2 - 0.1
						if r == dropRound && j%5 == 2 || r == allDropped {
							targets[j] = Dropped
						}
					}
					got, gotErr := d.Fit(held, targets)
					var samples []nn.Sample
					for j, v := range targets {
						if !IsDropped(v) {
							samples = append(samples, nn.Sample{X: refX[j], Y: clamp01(v)})
						}
					}
					before := fresh.Params()
					want, wantErr := Distill(fresh, cfg, samples)
					if m.hidden == nil && r != allDropped {
						// And both on the bits of the per-round fit they replace.
						oracle := fresh.Clone()
						if err := oracle.SetParams(before); err != nil {
							t.Fatal(err)
						}
						ref, err := referenceDistill(oracle, cfg, samples)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(ref) != math.Float64bits(want) || !sameBits(oracle.ParamsView(), fresh.ParamsView()) {
							t.Fatalf("round %d: Distill diverged from the replaced fit", r)
						}
					}
					if r == allDropped {
						if !errors.Is(gotErr, ErrNoTargets) || wantErr == nil {
							t.Fatalf("round %d, all dropped: Fit error %v, Distill error %v", r, gotErr, wantErr)
						}
					} else if gotErr != nil || wantErr != nil {
						t.Fatalf("round %d: Fit error %v, Distill error %v", r, gotErr, wantErr)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("round %d: loss %v, fresh Distill %v", r, got, want)
					}
					if !sameBits(held.ParamsView(), fresh.ParamsView()) {
						t.Fatalf("round %d: params %v, fresh Distill %v", r, held.ParamsView(), fresh.ParamsView())
					}
					// The closed form factors in round 0 and whenever the kept
					// rows differ from the previous fit's: the drop and the
					// restore. The all-dropped round fits nothing, so the
					// round after it reuses the full-set factorisation.
					if m.hidden == nil && (r == 0 || r == dropRound || r == dropRound+1) {
						wantRefactors++
					}
					if d.refactors != wantRefactors {
						t.Fatalf("round %d: %d refactors, want %d", r, d.refactors, wantRefactors)
					}
				}
			})
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceDistill is the closed-form fit as it stood before the
// Distiller (PR 24), kept as the oracle: design matrix, logits and
// linalg.RidgeLeastSquares built afresh on every call.
func referenceDistill(shared *nn.Network, cfg Config, samples []nn.Sample) (float64, error) {
	n := len(samples)
	zmax := 3.9
	if shared.Activation().Poly != nil {
		zmax = 2
	}
	piMax := (1 + math.Tanh(zmax/2)) / 2
	a := linalg.NewMatrix(n, cfg.InputSize+1)
	z := make([]float64, n)
	for i, smp := range samples {
		for j, v := range smp.X {
			a.Set(i, j, v)
		}
		a.Set(i, cfg.InputSize, 1)
		pi := math.Min(piMax, math.Max(1-piMax, smp.Y))
		z[i] = 2 * math.Atanh(2*pi-1)
	}
	wb, err := linalg.RidgeLeastSquares(a, z, 1e-3*float64(n))
	if err != nil {
		return 0, err
	}
	alpha := cfg.serverStep()
	old := shared.Params()
	for i := range wb {
		wb[i] = old[i] + alpha*(wb[i]-old[i])
	}
	if err := shared.SetParams(wb); err != nil {
		return 0, err
	}
	var total float64
	for _, smp := range samples {
		l, err := shared.Loss(smp.X, smp.Y)
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(n), nil
}

func TestDistillerValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := NewDistiller(cfg, [][]float64{make([]float64, 3)}); err == nil {
		t.Error("wrong reference width accepted")
	}
	d, err := NewDistiller(cfg, distillRef(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Fit(distillNet(t, approx.SymmetricSigmoid(), nil), make([]float64, 7)); err == nil {
		t.Error("target count unequal to the reference size accepted")
	}
	if _, err := Distill(distillNet(t, approx.SymmetricSigmoid(), nil), cfg, nil); err == nil {
		t.Error("Distill without samples accepted")
	}
}

// BenchmarkDistill times the fit at the workloads' reference sizes: a
// fresh Distill (design matrix, normal equations and elimination every
// call — what benchmark/'s fl.distill_ms measures) against a held
// Distiller in steady state (z, Aᵀz, one replay, the update and the loss).
func BenchmarkDistill(b *testing.B) {
	poly, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig()
	for _, n := range []int{64, 192, 768} {
		refX := distillRef(b, n)
		rng := rand.New(rand.NewSource(1))
		targets := make([]float64, n)
		samples := make([]nn.Sample, n)
		for j := range targets {
			targets[j] = rng.Float64()
			samples[j] = nn.Sample{X: refX[j], Y: targets[j]}
		}
		net := distillNet(b, approx.FromPolynomial("ls1", poly), nil)
		b.Run(fmt.Sprintf("oneshot/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Distill(net, cfg, samples); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("steady/n=%d", n), func(b *testing.B) {
			d, err := NewDistiller(cfg, refX)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.Fit(net, targets); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Fit(net, targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
