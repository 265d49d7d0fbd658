package nn

import (
	"errors"
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
// kept as the oracle they are pinned to: the weights as a plain slice,
// every step computing its own pre-activation, the loss taken every epoch.
type referenceNet struct {
	w   []float64
	b   float64
	act approx.Activation
}

func newReferenceNet(n *Network) *referenceNet {
	r := &referenceNet{w: make([]float64, n.InputSize()), act: n.Activation()}
	r.setParams(n.Params())
	return r
}

func (r *referenceNet) params() []float64 {
	return append(append([]float64(nil), r.w...), r.b)
}

func (r *referenceNet) setParams(p []float64) {
	r.b = p[copy(r.w, p)]
}

// z is the pre-activation w·x + b, summed from zero by index.
func (r *referenceNet) z(x []float64) float64 {
	var sum float64
	for j, v := range r.w {
		sum += v * x[j]
	}
	return sum + r.b
}

// estimate is the forward pass: π = (1 + F(z))/2, unclamped.
func (r *referenceNet) estimate(x []float64) float64 {
	return (1 + r.act.F(r.z(x))) / 2
}

func (r *referenceNet) step(s Sample, rho float64) float64 {
	z := r.z(s.X)
	pi := clampProb((1 + r.act.F(z)) / 2)
	loss := -(s.Y*math.Log(pi) + (1-s.Y)*math.Log(1-pi))
	dLdPi := -(s.Y / pi) + (1-s.Y)/(1-pi)
	delta := clipDelta(dLdPi * 0.5 * r.act.DF(z))
	for j := range r.w {
		r.w[j] = r.w[j] - rho*delta*s.X[j]
	}
	r.b -= rho * delta
	return loss
}

func (r *referenceNet) trainSGD(samples []Sample, rho float64, epochs int, rng *rand.Rand) float64 {
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		if rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var total float64
		for _, idx := range order {
			total += r.step(samples[idx], rho)
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

// TestTrainSGDMatchesReferenceStep pins the epoch kernel to the reference
// bit for bit, parameters and returned loss. Even cases run the widths the
// binaries run (1–32 inputs, every fourth one the traffic application's
// 16), odd ones narrow widths (1–6 inputs); across them the exact sigmoid
// and the degree 1–3 polynomial fits, binary and soft labels. Two calls
// per case cover the reused scratch as well as the freshly built one.
func TestTrainSGDMatchesReferenceStep(t *testing.T) {
	acts := []approx.Activation{approx.SymmetricSigmoid(), lsActivation(t, 1), lsActivation(t, 2), lsActivation(t, 3)}
	rng := rand.New(rand.NewSource(77))
	for c := 0; c < 240; c++ {
		sizes := []int{1 + rng.Intn(32)}
		if c%8 == 0 {
			sizes[0] = 16
		}
		if c%2 == 1 {
			sizes[0] = 1 + rng.Intn(6)
		}
		sizes = append(sizes, 1)
		n, err := New(Config{LayerSizes: sizes, Activation: acts[(c/2)%len(acts)], Seed: int64(c)})
		if err != nil {
			t.Fatal(err)
		}
		samples := randomSamples(rng, 1+rng.Intn(20), sizes[0], c%5 == 0)
		rho := 0.05 + rng.Float64()
		epochs := 1 + rng.Intn(3)
		ref := newReferenceNet(n)
		seed := rng.Int63()
		gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for call := 0; call < 2; call++ {
			got, err := n.TrainSGD(samples, rho, epochs, gotRNG)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.trainSGD(samples, rho, epochs, wantRNG)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d sizes %v act %s call %d: loss %v, reference %v", c, sizes, n.act.Name, call, got, want)
			}
			if !sameFloatBits(n.Params(), ref.params()) {
				t.Fatalf("case %d sizes %v act %s call %d: parameters diverged from the reference step",
					c, sizes, n.act.Name, call)
			}
		}
	}
}

// TestTrainSGDEdgeSets runs the epoch kernel and the reference on sets
// the random cases do not reach, and requires loss and parameters to
// agree bit for bit and, where an rng shuffles, the two rngs to end in the
// same state:
//   - a one-sample set (Shuffle draws nothing for it);
//   - no rng (no shuffle at all, the identity order every epoch);
//   - a row holding a NaN, +Inf, −Inf or −0 feature, labelled 0 and then
//     1. Past a NaN or an infinite z the parameters and the loss are NaN, and their signs and
//     payloads are compared too. Only the loss shows its NaN's sign: a NaN
//     π comes with a NaN F′, whose NaN the delta carries instead of
//     ∂L/∂π's;
//   - an activation whose top coefficient is −0, which Horner from a zero
//     accumulator keeps apart from Horner seeded with that coefficient.
func TestTrainSGDEdgeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	type edgeCase struct {
		name    string
		act     approx.Activation
		samples []Sample
		seeded  bool
	}
	cases := []edgeCase{
		{"one sample", lsActivation(t, 1), randomSamples(rng, 1, 16, false), true},
		{"nil rng", lsActivation(t, 1), randomSamples(rng, 13, 16, true), false},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero} {
		for _, y := range []float64{0, 1} {
			samples := randomSamples(rng, 9, 16, false)
			odd := samples[rng.Intn(len(samples))]
			odd.X[rng.Intn(16)] = v
			odd.Y = y
			name := fmt.Sprintf("feature %v labelled %v", v, y)
			cases = append(cases, edgeCase{name, lsActivation(t, 2), samples, true})
		}
	}
	allNegZero := randomSamples(rng, 9, 16, false)
	for j := range allNegZero[4].X {
		allNegZero[4].X[j] = negZero
	}
	negTop := approx.FromPolynomial("negzero", poly.Real{negZero, 1, negZero, 0.1, negZero})
	cases = append(cases,
		edgeCase{"an all −0 row", lsActivation(t, 3), allNegZero, true},
		edgeCase{"−0 top coefficient", negTop, randomSamples(rng, 20, 16, false), true},
	)
	for _, c := range cases {
		n, err := New(Config{LayerSizes: []int{16, 1}, Activation: c.act, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		ref := newReferenceNet(n)
		var gotRNG, wantRNG *rand.Rand
		if c.seeded {
			gotRNG, wantRNG = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		}
		got, err := n.TrainSGD(c.samples, 0.2, 3, gotRNG)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.trainSGD(c.samples, 0.2, 3, wantRNG)
		if math.Float64bits(got) != math.Float64bits(want) || !sameFloatBits(n.Params(), ref.params()) {
			t.Fatalf("%s: loss %v vs reference %v, or parameters diverged", c.name, got, want)
		}
		if c.seeded && gotRNG.Int63() != wantRNG.Int63() {
			t.Fatalf("%s: rng state differs from the reference's after training", c.name)
		}
	}
}

// TestTrainThenLossMatchesTrainSGD: Train, the entry vehicles call, and
// then the loss on demand leave the parameters, the rng state and the
// loss bits that TrainSGD and the reference leave, call after call on one
// network's reused scratch, on both paths. The sample counts shrink the
// scratch, grow it back within its capacity and past it, so the recorded
// π and labels must be re-sized with the order they belong to.
func TestTrainThenLossMatchesTrainSGD(t *testing.T) {
	data := rand.New(rand.NewSource(14))
	sizes := []int{16, 1}
	n, err := New(Config{LayerSizes: sizes, Activation: lsActivation(t, 2), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	twin, ref := n.Clone(), newReferenceNet(n)
	rngs := [3]*rand.Rand{}
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(13))
	}
	for call, count := range []int{40, 7, 40, 65, 1, 30} {
		samples := randomSamples(data, count, sizes[0], call%2 == 1)
		if err := n.Train(samples, 0.3, 3, rngs[0]); err != nil {
			t.Fatal(err)
		}
		got := n.trainedLoss()
		viaSGD, err := twin.TrainSGD(samples, 0.3, 3, rngs[1])
		if err != nil {
			t.Fatal(err)
		}
		want := ref.trainSGD(samples, 0.3, 3, rngs[2])
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(viaSGD) != math.Float64bits(want) {
			t.Fatalf("%v call %d (%d samples): Train then loss %v, TrainSGD %v, reference %v", sizes, call, count, got, viaSGD, want)
		}
		if !sameFloatBits(n.Params(), ref.params()) || !sameFloatBits(twin.Params(), ref.params()) {
			t.Fatalf("%v call %d (%d samples): parameters diverged from the reference", sizes, call, count)
		}
	}
	if a, b, c := rngs[0].Int63(), rngs[1].Int63(), rngs[2].Int63(); a != c || b != c {
		t.Fatalf("%v: rng states differ after training: next draws %d, %d, reference %d", sizes, a, b, c)
	}
}

// TestShuffleMatchesRandShuffle pins the epoch kernel's inline draw to
// math/rand's Shuffle: the same permutation and, after it, the same rng
// state, over set sizes from one sample to past the workloads' 240 rows.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 240, 4096} {
		for seed := int64(0); seed < 50; seed++ {
			got, want := make([]int, n), make([]int, n)
			for i := range got {
				got[i], want[i] = i, i
			}
			gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			shuffle(gotRNG, got)
			wantRNG.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed %d: position %d holds %d, Shuffle put %d there", n, seed, i, got[i], want[i])
				}
			}
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("n=%d seed %d: next draw %d after shuffle, %d after Shuffle", n, seed, g, w)
			}
		}
	}
}

// countingSource counts the values drawn from it.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// errStopShuffle ends a Shuffle early; it is raised from the swap
// function and recovered by shufflePairs.
var errStopShuffle = errors.New("stop")

// shufflePairs returns the first count (i, j) swaps rng.Shuffle(n, …)
// makes, stopping it there so that nothing n-sized is allocated.
func shufflePairs(t *testing.T, rng *rand.Rand, n, count int) (pairs [][2]int) {
	t.Helper()
	defer func() {
		if r := recover(); r != errStopShuffle {
			panic(r)
		}
	}()
	rng.Shuffle(n, func(i, j int) {
		pairs = append(pairs, [2]int{i, j})
		if len(pairs) == count {
			panic(errStopShuffle)
		}
	})
	t.Fatalf("Shuffle(%d) made only %d swaps", n, len(pairs))
	return nil
}

// TestLemireRejectionBranch pins lemire's redraw, which shuffle reaches
// only when 2³² mod n is large: for n in [2³⁰, 2³¹−1) up to a third of
// all first draws are rejected. The first 10 000 (i, j) pairs Shuffle
// makes at such n are drawn again through lemire, exactly as shuffle's
// loop draws them, and must agree, as must the number of values drawn
// and the rng state after them. Over those pairs n falls by 10 000; the
// set spans no rejections (2³⁰, a power of two, and 2³¹−2, where
// 2³² mod n is 4) to about a third (2²⁰ above 2³²/3), and the test
// requires that the redraws were many.
func TestLemireRejectionBranch(t *testing.T) {
	const count = 10000
	redraws := 0
	for k, n := range []int{1 << 30, 1<<30 + 1<<20, 1<<32/3 + 1<<20, 3<<29 + 12345, 1<<31 - 2} {
		seed := int64(90 + k)
		wantSrc := &countingSource{Source: rand.NewSource(seed)}
		wantRNG := rand.New(wantSrc)
		want := shufflePairs(t, wantRNG, n, count)
		gotSrc := &countingSource{Source: rand.NewSource(seed)}
		gotRNG := rand.New(gotSrc)
		for c, i := 0, n-1; c < count; c, i = c+1, i-1 {
			j := int(lemire(gotRNG, gotRNG.Uint32(), uint32(i+1)) >> 32)
			if got := [2]int{i, j}; got != want[c] {
				t.Fatalf("n=%d pair %d: lemire drew %v, Shuffle swapped %v", n, c, got, want[c])
			}
		}
		if gotSrc.draws != wantSrc.draws {
			t.Fatalf("n=%d: lemire drew %d values, Shuffle %d", n, gotSrc.draws, wantSrc.draws)
		}
		if gotRNG.Int63() != wantRNG.Int63() {
			t.Fatalf("n=%d: rng state differs after %d swaps", n, count)
		}
		redraws += gotSrc.draws - count - 1 // the state check drew one
	}
	if redraws < count {
		t.Fatalf("only %d redraws over the set: the rejection branch was barely reached", redraws)
	}
}

// TestCloneCarriesDerivative: the fused step evaluates a derivative
// polynomial cached beside the activation, and a clone shares it. For
// each activation (polynomials of three degrees, and the exact sigmoid,
// which has none) a trained network's clone keeps training on the
// reference's bits.
func TestCloneCarriesDerivative(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	samples := randomSamples(rng, 40, 16, false)
	for leg, act := range []approx.Activation{lsActivation(t, 3), lsActivation(t, 1), approx.SymmetricSigmoid(), lsActivation(t, 2)} {
		n, err := New(Config{LayerSizes: []int{16, 1}, Activation: act, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		ref := newReferenceNet(n)
		gotRNG, wantRNG := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		if _, err := n.TrainSGD(samples, 0.2, 2, gotRNG); err != nil {
			t.Fatal(err)
		}
		clone := n.Clone()
		if !sameFloatBits(clone.dact, n.dact) {
			t.Fatalf("leg %d: clone carries derivative %v, original %v", leg, clone.dact, n.dact)
		}
		got, err := clone.TrainSGD(samples, 0.2, 2, gotRNG)
		if err != nil {
			t.Fatal(err)
		}
		ref.trainSGD(samples, 0.2, 2, wantRNG)
		want := ref.trainSGD(samples, 0.2, 2, wantRNG)
		if math.Float64bits(got) != math.Float64bits(want) || !sameFloatBits(clone.Params(), ref.params()) {
			t.Fatalf("leg %d (%s): loss %v vs reference %v, or parameters diverged", leg, act.Name, got, want)
		}
	}
}

// TestEstimateClampedAppendMatchesPerRow pins the batch estimate to the
// per-row EstimateClamped bit for bit: with a degree 1–3 polynomial
// (four-row blocks plus a row-by-row tail), with an activation carrying a
// −0 coefficient, and with the exact sigmoid (row by row); over rows scaled so that some estimates clamp
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

// BenchmarkTrainSGDSingle times one vehicle's local training, Train (the
// entry a node vehicle calls, no loss), at the train-v16-pipe workload's
// shape: 240 rows of 16 features, 5 epochs at rate 0.2, the degree-1
// least-squares activation. It ends with one TrainSGD call on a clone of
// the trained network, checked bit for bit against the reference step
// from the same state and seed.
func BenchmarkTrainSGDSingle(b *testing.B) {
	const rows, features, epochs, rho = 240, 16, 5, 0.2
	n, err := New(Config{LayerSizes: []int{features, 1}, Activation: lsActivation(b, 1), Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	samples := randomSamples(rng, rows, features, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Train(samples, rho, epochs, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	check := n.Clone()
	ref := newReferenceNet(check)
	got, err := check.TrainSGD(samples, rho, epochs, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	want := ref.trainSGD(samples, rho, epochs, rand.New(rand.NewSource(7)))
	if math.Float64bits(got) != math.Float64bits(want) || !sameFloatBits(check.Params(), ref.params()) {
		b.Fatalf("loss %v vs reference %v, or parameters diverged", got, want)
	}
}

// TestEstimateMatchesForward pins the allocation-free estimate to the
// reference's forward pass, bit for bit, under the exact sigmoid and a
// polynomial activation.
func TestEstimateMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, act := range []approx.Activation{approx.SymmetricSigmoid(), lsActivation(t, 3)} {
		n, err := New(Config{LayerSizes: []int{5, 1}, Activation: act, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		ref := newReferenceNet(n)
		for i := 0; i < 200; i++ {
			x := make([]float64, 5)
			for j := range x {
				x[j] = 4*rng.Float64() - 2
			}
			got, err := n.Estimate(x)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.estimate(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Estimate = %v, reference forward pass gives %v", act.Name, got, want)
			}
		}
		if _, err := n.Estimate([]float64{1}); err == nil {
			t.Error("wrong input length accepted")
		}
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
