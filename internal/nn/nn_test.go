package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/approx"
)

func testConfig(sizes ...int) Config {
	return Config{LayerSizes: sizes, Activation: approx.SymmetricSigmoid(), Seed: 42}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{LayerSizes: []int{4}, Activation: approx.SymmetricSigmoid()}); err == nil {
		t.Error("single-layer config accepted")
	}
	if _, err := New(Config{LayerSizes: []int{4, 0, 1}, Activation: approx.SymmetricSigmoid()}); err == nil {
		t.Error("zero-width layer accepted")
	}
	if _, err := New(Config{LayerSizes: []int{4, 1}}); err == nil {
		t.Error("missing activation accepted")
	}
}

func TestDeterministicInit(t *testing.T) {
	a, err := New(testConfig(4, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(4, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestForwardShapeAndRange(t *testing.T) {
	n, err := New(testConfig(4, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.Forward([]float64{0.1, -0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("output length %d", len(out))
	}
	for _, v := range out {
		if v <= -1 || v >= 1 {
			t.Errorf("sigmoid output %g outside (-1,1)", v)
		}
	}
	if _, err := n.Forward([]float64{1}); err == nil {
		t.Error("wrong input length accepted")
	}
}

func TestEstimateRange(t *testing.T) {
	n, err := New(testConfig(3, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := n.Estimate([]float64{0.5, -0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if pi <= 0 || pi >= 1 {
		t.Errorf("π = %g outside (0,1)", pi)
	}
	multi, err := New(testConfig(3, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.Estimate([]float64{1, 2, 3}); err == nil {
		t.Error("multi-output Estimate accepted")
	}
}

func TestLossPositiveAndCalibrated(t *testing.T) {
	n, err := New(testConfig(2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.8}
	l0, err := n.Loss(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := n.Loss(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l0 <= 0 || l1 <= 0 {
		t.Errorf("losses %g/%g not positive", l0, l1)
	}
	pi, _ := n.Estimate(x)
	// Cross-entropy identity: L(y=1) = -ln π.
	if math.Abs(l1+math.Log(pi)) > 1e-12 {
		t.Errorf("L(1) = %g, want %g", l1, -math.Log(pi))
	}
}

func TestCloneIndependence(t *testing.T) {
	n, err := New(testConfig(3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	rng := rand.New(rand.NewSource(1))
	samples := []Sample{{X: []float64{1, 0, -1}, Y: 1}}
	if _, err := c.TrainSGD(samples, 0.1, 5, rng); err != nil {
		t.Fatal(err)
	}
	pn, pc := n.Params(), c.Params()
	same := true
	for i := range pn {
		if pn[i] != pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("training the clone changed (or matched) the original exactly — clone aliases state")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	a, err := New(testConfig(4, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{LayerSizes: []int{4, 6, 1}, Activation: approx.SymmetricSigmoid(), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetParams(a.Params()); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	ya, _ := a.Forward(x)
	yb, _ := b.Forward(x)
	if ya[0] != yb[0] {
		t.Errorf("outputs differ after parameter transplant: %g vs %g", ya[0], yb[0])
	}
	if err := b.SetParams([]float64{1}); err == nil {
		t.Error("short parameter vector accepted")
	}
	if a.NumParams() != len(a.Params()) {
		t.Errorf("NumParams %d != len(Params) %d", a.NumParams(), len(a.Params()))
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	// One SGD step with tiny rho approximates -rho·∇L; verify the implied
	// gradient against central finite differences of the loss.
	n, err := New(testConfig(3, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := Sample{X: []float64{0.5, -0.3, 0.8}, Y: 1}

	base := n.Params()
	const h = 1e-6
	numGrad := make([]float64, len(base))
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
		numGrad[i] = (lp - lm) / (2 * h)
	}
	if err := n.SetParams(base); err != nil {
		t.Fatal(err)
	}

	const rho = 1e-7
	if _, err := n.TrainSGD([]Sample{s}, rho, 1, nil); err != nil {
		t.Fatal(err)
	}
	after := n.Params()
	for i := range base {
		implied := (base[i] - after[i]) / rho
		if math.Abs(implied-numGrad[i]) > 1e-3*(1+math.Abs(numGrad[i])) {
			t.Fatalf("param %d: backprop grad %g, finite-diff %g", i, implied, numGrad[i])
		}
	}
}

func TestTrainSGDLearnsSeparableTask(t *testing.T) {
	// Labels depend on the sign of the first feature — easily learnable.
	rng := rand.New(rand.NewSource(2))
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 0.0
		if x[0] > 0 {
			y = 1
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	n, err := New(testConfig(2, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := n.TrainSGD(samples, 0.5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	last, err := n.TrainSGD(samples, 0.5, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("loss did not improve: %g -> %g", first, last)
	}
	correct := 0
	for _, s := range samples {
		pi, _ := n.Estimate(s.X)
		if (pi > 0.5) == (s.Y == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(samples)); acc < 0.95 {
		t.Errorf("accuracy %g after training, want >= 0.95", acc)
	}
}

func TestTrainWithPolynomialActivation(t *testing.T) {
	// Swap in the paper's least-squares approximated activation and check
	// training still converges (the Approximation-only-FL behaviour).
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, 4, 1)
	cfg.Activation = approx.FromPolynomial("ls-3", p)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var samples []Sample
	for i := 0; i < 150; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 0.0
		if x[0]+x[1] > 0 {
			y = 1
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	loss, err := n.TrainSGD(samples, 0.2, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || loss > 0.5 {
		t.Errorf("polynomial-activation training loss %g", loss)
	}
}

func TestTrainValidation(t *testing.T) {
	n, err := New(testConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.TrainSGD(nil, 0.1, 1, nil); err == nil {
		t.Error("empty samples accepted")
	}
	s := []Sample{{X: []float64{1, 2}, Y: 1}}
	if _, err := n.TrainSGD(s, 0, 1, nil); err == nil {
		t.Error("zero learning rate accepted")
	}
	if _, err := n.TrainSGD(s, 0.1, 0, nil); err == nil {
		t.Error("zero epochs accepted")
	}
	bad := []Sample{{X: []float64{1}, Y: 1}}
	if _, err := n.TrainSGD(bad, 0.1, 1, nil); err == nil {
		t.Error("wrong sample width accepted")
	}
	multi, err := New(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.TrainSGD(s, 0.1, 1, nil); err == nil {
		t.Error("multi-output training accepted")
	}
}

func TestSizes(t *testing.T) {
	n, err := New(testConfig(5, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := n.Sizes()
	if len(s) != 3 || s[0] != 5 || n.InputSize() != 5 || n.OutputSize() != 1 {
		t.Errorf("sizes wrong: %v", s)
	}
	s[0] = 99
	if n.InputSize() == 99 {
		t.Error("Sizes aliases internal state")
	}
}
