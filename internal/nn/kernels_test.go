package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/poly"
)

// referenceNet is the straight-line SGD the in-place kernels replaced,
// kept as the oracle they are pinned to: per-layer weights as plain rows,
// every step allocating its own activations, the proximal pull and the L1
// projection going through a flattened copy, the loss taken every epoch.
type referenceNet struct {
	w         [][][]float64 // w[l][i][j]
	b         [][]float64
	act       approx.Activation
	weightCap float64
}

func newReferenceNet(n *Network) *referenceNet {
	r := &referenceNet{act: n.Activation(), weightCap: n.WeightCap()}
	sizes := n.Sizes()
	for l := 0; l+1 < len(sizes); l++ {
		rows := make([][]float64, sizes[l+1])
		for i := range rows {
			rows[i] = make([]float64, sizes[l])
		}
		r.w = append(r.w, rows)
		r.b = append(r.b, make([]float64, sizes[l+1]))
	}
	r.setParams(n.Params())
	return r
}

func (r *referenceNet) params() []float64 {
	var out []float64
	for l := range r.w {
		for _, row := range r.w[l] {
			out = append(out, row...)
		}
		out = append(out, r.b[l]...)
	}
	return out
}

func (r *referenceNet) setParams(p []float64) {
	k := 0
	for l := range r.w {
		for _, row := range r.w[l] {
			k += copy(row, p[k:])
		}
		k += copy(r.b[l], p[k:])
	}
}

func (r *referenceNet) step(s Sample, rho float64) float64 {
	L := len(r.w)
	as := make([][]float64, L+1)
	zs := make([][]float64, L)
	as[0] = append([]float64(nil), s.X...)
	for l := 0; l < L; l++ {
		z := make([]float64, len(r.w[l]))
		for i, row := range r.w[l] {
			var sum float64
			for j, v := range row {
				sum += v * as[l][j]
			}
			z[i] = sum
		}
		for i := range z {
			z[i] += r.b[l][i]
		}
		zs[l] = z
		a := make([]float64, len(z))
		for i := range z {
			a[i] = r.act.F(z[i])
		}
		as[l+1] = a
	}
	pi := clampProb((1 + as[L][0]) / 2)
	loss := -(s.Y*math.Log(pi) + (1-s.Y)*math.Log(1-pi))
	dLdPi := -(s.Y / pi) + (1-s.Y)/(1-pi)
	delta := []float64{clipDelta(dLdPi * 0.5 * r.act.DF(zs[L-1][0]))}
	for l := L - 1; l >= 0; l-- {
		var next []float64
		if l > 0 {
			next = make([]float64, len(as[l]))
			for j := range next {
				var sum float64
				for i := range delta {
					sum += r.w[l][i][j] * delta[i]
				}
				next[j] = sum * r.act.DF(zs[l-1][j])
			}
		}
		for i := range delta {
			for j := range as[l] {
				r.w[l][i][j] = r.w[l][i][j] - rho*delta[i]*as[l][j]
			}
			r.b[l][i] -= rho * delta[i]
		}
		delta = next
	}
	return loss
}

func (r *referenceNet) trainSGD(samples []Sample, rho float64, epochs int, rng *rand.Rand, mu float64, anchor []float64) float64 {
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		for _, idx := range order {
			total += r.step(samples[idx], rho)
			if mu > 0 {
				params := r.params()
				for i := range params {
					params[i] -= rho * mu * (params[i] - anchor[i])
				}
				r.setParams(params)
			}
			if r.weightCap > 0 {
				params := r.params()
				var l1 float64
				for _, p := range params {
					l1 += math.Abs(p)
				}
				if l1 > r.weightCap {
					scale := r.weightCap / l1
					for i := range params {
						params[i] *= scale
					}
					r.setParams(params)
				}
			}
		}
		lastLoss = total / float64(len(samples))
	}
	return lastLoss
}

func sameFloatBits(a, b []float64) bool {
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

// lsActivation is the least-squares polynomial fit of the symmetric
// sigmoid on [-2, 2] at the given degree, as the vehicles install it.
func lsActivation(t testing.TB, degree int) approx.Activation {
	t.Helper()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, degree)
	if err != nil {
		t.Fatal(err)
	}
	return approx.FromPolynomial("ls", p)
}

func randomSamples(rng *rand.Rand, count, in int, softLabels bool) []Sample {
	samples := make([]Sample, count)
	for i := range samples {
		x := make([]float64, in)
		for j := range x {
			x[j] = 2*rng.Float64() - 1
		}
		samples[i] = Sample{X: x, Y: float64(rng.Intn(2))}
		if softLabels {
			samples[i].Y = rng.Float64()
		}
	}
	return samples
}

// TestTrainSGDMatchesReferenceStep pins the in-place kernels — the fused
// single-layer step and the general one — to the reference bit for bit,
// parameters and returned loss. Even cases are the single-layer shape at
// the widths the binaries run (1–32 inputs, every fourth one the traffic
// application's 16), odd ones have one or two hidden layers; across them
// the exact sigmoid and the degree 1–3 polynomial fits, the L1 cap on and
// off, the proximal term on and off, binary and soft labels. Two calls
// per case cover the reused scratch as well as the freshly built one.
func TestTrainSGDMatchesReferenceStep(t *testing.T) {
	acts := []approx.Activation{approx.SymmetricSigmoid(), lsActivation(t, 1), lsActivation(t, 2), lsActivation(t, 3)}
	rng := rand.New(rand.NewSource(77))
	var fusedPlain, fusedConstrained, general int
	for c := 0; c < 240; c++ {
		sizes := []int{1 + rng.Intn(32)}
		if c%8 == 0 {
			sizes[0] = 16
		}
		if c%2 == 1 {
			sizes[0] = 1 + rng.Intn(6)
			for h := 1 + rng.Intn(2); h > 0; h-- {
				sizes = append(sizes, 1+rng.Intn(5))
			}
		}
		sizes = append(sizes, 1)
		n, err := New(Config{LayerSizes: sizes, Activation: acts[(c/2)%len(acts)], Seed: int64(c)})
		if err != nil {
			t.Fatal(err)
		}
		if (c/8)%2 == 1 {
			// Tight enough that most steps project.
			if err := n.SetWeightCap(0.5 + rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		var mu float64
		if (c/16)%2 == 1 {
			mu = 0.05 + rng.Float64()
		}
		switch {
		case !n.singleLayer():
			general++
		case mu == 0 && n.WeightCap() == 0:
			fusedPlain++
		default:
			fusedConstrained++
		}
		anchor := n.Params()
		samples := randomSamples(rng, 1+rng.Intn(20), sizes[0], c%5 == 0)
		rho := 0.05 + rng.Float64()
		epochs := 1 + rng.Intn(3)
		ref := newReferenceNet(n)
		seed := rng.Int63()
		gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for call := 0; call < 2; call++ {
			got, err := n.TrainSGDProximal(samples, rho, epochs, gotRNG, mu, anchor)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.trainSGD(samples, rho, epochs, wantRNG, mu, anchor)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d sizes %v act %s call %d: loss %v, reference %v", c, sizes, n.act.Name, call, got, want)
			}
			if !sameFloatBits(n.Params(), ref.params()) {
				t.Fatalf("case %d sizes %v act %s cap %g mu %g call %d: parameters diverged from the reference step",
					c, sizes, n.act.Name, n.WeightCap(), mu, call)
			}
		}
	}
	if fusedPlain < 20 || fusedConstrained < 20 || general < 20 {
		t.Fatalf("cases reached the fused step %d times bare and %d times with cap or mu, the general step %d times: want each >= 20",
			fusedPlain, fusedConstrained, general)
	}
}

// TestSetActivationRefreshesDerivative: the fused step evaluates a
// derivative polynomial cached beside the activation. Train, swap the
// activation for one of another degree (and then for the exact sigmoid,
// which has none), train again: every leg matches a reference that was
// handed the same activation.
func TestSetActivationRefreshesDerivative(t *testing.T) {
	n, err := New(Config{LayerSizes: []int{16, 1}, Activation: lsActivation(t, 3), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	samples := randomSamples(rng, 40, 16, false)
	ref := newReferenceNet(n)
	gotRNG, wantRNG := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for leg, act := range []approx.Activation{n.Activation(), lsActivation(t, 1), approx.SymmetricSigmoid(), lsActivation(t, 2)} {
		if err := n.SetActivation(act); err != nil {
			t.Fatal(err)
		}
		ref.act = act
		got, err := n.TrainSGD(samples, 0.2, 2, gotRNG)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.trainSGD(samples, 0.2, 2, wantRNG, 0, nil)
		if math.Float64bits(got) != math.Float64bits(want) || !sameFloatBits(n.Params(), ref.params()) {
			t.Fatalf("leg %d (%s): loss %v vs reference %v, or parameters diverged", leg, act.Name, got, want)
		}
		if clone := n.Clone(); !sameFloatBits(clone.dact, n.dact) {
			t.Fatalf("leg %d: clone carries derivative %v, original %v", leg, clone.dact, n.dact)
		}
	}
}

// TestEstimateClampedAppendMatchesPerRow pins the batch estimate to the
// per-row EstimateClamped bit for bit: single-layer with a degree 1–3
// polynomial (four-row blocks plus a row-by-row tail), with an activation
// carrying a −0 coefficient, with the exact sigmoid (row by row), and a
// hidden layer (row by row); over rows scaled so that some estimates clamp
// at 0 and some at 1, over 0–9 rows (every remainder of a block), over
// rows holding NaN, ±Inf and −0 features, appended after existing
// contents. A short row at any position of a block leaves exactly the
// rows before it in dst and is the row the error names.
func TestEstimateClampedAppendMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	negZero := math.Copysign(0, -1)
	for c, cfg := range []Config{
		{LayerSizes: []int{16, 1}, Activation: lsActivation(t, 1), Seed: 1},
		{LayerSizes: []int{16, 1}, Activation: lsActivation(t, 2), Seed: 5},
		{LayerSizes: []int{16, 1}, Activation: lsActivation(t, 3), Seed: 2},
		{LayerSizes: []int{5, 1}, Activation: approx.FromPolynomial("negzero", poly.Real{negZero, 1, negZero, 0.1, negZero}), Seed: 6},
		{LayerSizes: []int{7, 1}, Activation: approx.SymmetricSigmoid(), Seed: 3},
		{LayerSizes: []int{16, 4, 1}, Activation: lsActivation(t, 2), Seed: 4},
	} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		params := n.Params() // New leaves the biases at zero
		for i := range params {
			params[i] += rng.Float64() - 0.5
		}
		if err := n.SetParams(params); err != nil {
			t.Fatal(err)
		}
		in := cfg.LayerSizes[0]
		randomRows := func(count int) [][]float64 {
			rows := make([][]float64, count)
			for i := range rows {
				rows[i] = make([]float64, in)
				for j := range rows[i] {
					rows[i][j] = (2*rng.Float64() - 1) * float64(1+i%12)
				}
			}
			return rows
		}
		// checkRows appends the estimates of rows after a sentinel and
		// compares every one with its per-row estimate; it returns how
		// many clamped at 0 and at 1.
		checkRows := func(what string, rows [][]float64) (atZero, atOne int) {
			t.Helper()
			got, err := n.EstimateClampedAppend([]float64{-7}, rows)
			if err != nil {
				t.Fatalf("case %d %s: %v", c, what, err)
			}
			if len(got) != len(rows)+1 || got[0] != -7 {
				t.Fatalf("case %d %s: appended to %d values starting %v, want %d after the existing one", c, what, len(got), got[0], len(rows))
			}
			for i, x := range rows {
				want, err := n.EstimateClamped(x)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[i+1]) != math.Float64bits(want) {
					t.Fatalf("case %d %s row %d: batch %v, per-row %v", c, what, i, got[i+1], want)
				}
				if want == 0 {
					atZero++
				} else if want == 1 {
					atOne++
				}
			}
			return atZero, atOne
		}

		rows := randomRows(300)
		atZero, atOne := checkRows("300 rows", rows)
		if cfg.Activation.Poly != nil && (atZero == 0 || atOne == 0) {
			t.Fatalf("case %d: %d rows clamped at 0 and %d at 1, want both", c, atZero, atOne)
		}
		for count := 0; count <= 9; count++ {
			checkRows(fmt.Sprintf("%d rows", count), rows[:count])
		}
		special := randomRows(12)
		for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero} {
			special[i][i%in] = v       // one odd feature in an otherwise finite row
			special[i+4][(i+1)%in] = v // and again in the next block
		}
		for j := range special[8] {
			special[8][j] = negZero // an all −0 row: z is the bias's sign of zero
		}
		checkRows("non-finite and −0 features", special)

		for short := 0; short < 8; short++ {
			rows := randomRows(9)
			rows[short] = rows[short][:in-1]
			out, err := n.EstimateClampedAppend(nil, rows)
			if err == nil || len(out) != short || !strings.Contains(err.Error(), fmt.Sprintf("row %d:", short)) {
				t.Fatalf("case %d: short row %d gave %d values and error %v", c, short, len(out), err)
			}
			for i := range out {
				want, _ := n.EstimateClamped(rows[i])
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("case %d short row %d: prefix row %d is %v, per-row %v", c, short, i, out[i], want)
				}
			}
		}
	}
}

// BenchmarkEstimateClampedAppend times the learning channel of one upload
// at the decode-v64-adv workload's shape: 768 reference rows of 16
// features, a degree-1 activation. It ends by checking the last result
// against the per-row estimate.
func BenchmarkEstimateClampedAppend(b *testing.B) {
	const rows, features = 768, 16
	n, err := New(Config{LayerSizes: []int{features, 1}, Activation: lsActivation(b, 1), Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	ref := randomSamples(rng, rows, features, false)
	xs := make([][]float64, rows)
	for i := range xs {
		xs[i] = ref[i].X
	}
	dst := make([]float64, 0, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = n.EstimateClampedAppend(dst[:0], xs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i, x := range xs {
		want, err := n.EstimateClamped(x)
		if err != nil || math.Float64bits(dst[i]) != math.Float64bits(want) {
			b.Fatalf("row %d: batch %v, per-row %v (%v)", i, dst[i], want, err)
		}
	}
}

// TestEstimateMatchesForward pins the allocation-free single-layer
// estimate to the general Forward path it short-cuts.
func TestEstimateMatchesForward(t *testing.T) {
	n, err := New(testConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x := make([]float64, 5)
		for j := range x {
			x[j] = 4*rng.Float64() - 2
		}
		out, err := n.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := (1 + out[0]) / 2; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Estimate = %v, Forward gives %v", got, want)
		}
	}
	if _, err := n.Estimate([]float64{1}); err == nil {
		t.Error("wrong input length accepted")
	}
}

// TestEstimateClampedConcurrentReaders: fl.System fans vehicles out over
// a worker pool and schemes estimate on shared models from there, so the
// read path must carry no shared scratch. Eight goroutines estimating on
// one Network — one that has trained, so its training scratch exists —
// agree with the serial result; -race checks the rest.
func TestEstimateClampedConcurrentReaders(t *testing.T) {
	n, err := New(testConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	xs := make([][]float64, 256)
	samples := make([]Sample, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = 2*rng.Float64() - 1
		}
		samples[i] = Sample{X: xs[i], Y: float64(i % 2)}
	}
	if _, err := n.TrainSGD(samples, 0.1, 1, rng); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(xs))
	for i, x := range xs {
		if want[i], err = n.EstimateClamped(x); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range xs {
				got, err := n.EstimateClamped(x)
				if err != nil || math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("row %d: concurrent estimate %v (%v), serial %v", i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
