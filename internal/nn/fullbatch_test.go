package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/poly"
)

func TestGradientMatchesFiniteDifferencesDirect(t *testing.T) {
	n, err := New(testConfig(3, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := Sample{X: []float64{0.4, -0.7, 0.2}, Y: 0}
	loss, grad, err := n.Gradient(s)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss, err := n.Loss(s.X, s.Y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-wantLoss) > 1e-12 {
		t.Errorf("Gradient loss %g != Loss %g", loss, wantLoss)
	}
	base := n.Params()
	const h = 1e-6
	for i := range base {
		p := append([]float64(nil), base...)
		p[i] = base[i] + h
		if err := n.SetParams(p); err != nil {
			t.Fatal(err)
		}
		lp, _ := n.Loss(s.X, s.Y)
		p[i] = base[i] - h
		if err := n.SetParams(p); err != nil {
			t.Fatal(err)
		}
		lm, _ := n.Loss(s.X, s.Y)
		if err := n.SetParams(base); err != nil {
			t.Fatal(err)
		}
		want := (lp - lm) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("grad[%d] = %g, finite diff %g", i, grad[i], want)
		}
	}
}

func TestGradientValidation(t *testing.T) {
	n, err := New(testConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Gradient(Sample{X: []float64{1}, Y: 0}); err == nil {
		t.Error("short sample accepted")
	}
	multi, err := New(testConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := multi.Gradient(Sample{X: []float64{1, 2, 3}, Y: 0}); err == nil {
		t.Error("multi-output gradient accepted")
	}
}

func TestTrainFullBatchConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for i := 0; i < 150; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 0.0
		if x[0]-x[1] > 0 {
			y = 1
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	n, err := New(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := n.TrainFullBatch(samples, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	last, err := n.TrainFullBatch(samples, 1.0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("full-batch loss did not improve: %g -> %g", first, last)
	}
	correct := 0
	for _, s := range samples {
		pi, _ := n.Estimate(s.X)
		if (pi > 0.5) == (s.Y == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(samples)); acc < 0.95 {
		t.Errorf("full-batch accuracy %g", acc)
	}
}

func TestTrainFullBatchValidation(t *testing.T) {
	n, err := New(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.TrainFullBatch(nil, 0.1, 1); err == nil {
		t.Error("empty samples accepted")
	}
	s := []Sample{{X: []float64{1, 2}, Y: 1}}
	if _, err := n.TrainFullBatch(s, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := n.TrainFullBatch(s, 0.1, 0); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestEstimateClamped(t *testing.T) {
	// A linear "activation" lets the raw estimate leave [0, 1].
	n, err := New(Config{
		LayerSizes: []int{1, 1},
		Activation: approx.FromPolynomial("id", poly.NewReal(0, 1)),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetParams([]float64{10, 0}); err != nil { // f(x) = 10x
		t.Fatal(err)
	}
	raw, err := n.Estimate([]float64{1}) // π = (1+10)/2 = 5.5
	if err != nil {
		t.Fatal(err)
	}
	if raw != 5.5 {
		t.Fatalf("raw estimate %g", raw)
	}
	cl, err := n.EstimateClamped([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if cl != 1 {
		t.Errorf("clamped high = %g", cl)
	}
	cl, err = n.EstimateClamped([]float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if cl != 0 {
		t.Errorf("clamped low = %g", cl)
	}
	cl, err = n.EstimateClamped([]float64{0.02}) // π = 0.6
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cl-0.6) > 1e-12 {
		t.Errorf("in-range estimate altered: %g", cl)
	}
}
