// Package nn implements the model the paper's traffic-slowness
// application trains (paper §V): one nonlinear layer with a scalar output,
// f(x) = F(w·x + b).
//
// F is the symmetric sigmoid F(x) = (1-e^(-x))/(1+e^(-x)) of eq. 10, or —
// on the L-CoFL path — a polynomial replacement produced by package
// approx. Only this shape keeps a vehicle's estimation a degree-d
// polynomial of its input, which the resiliency bound of eq. 6 needs
// (DESIGN.md §1). The output f ∈ (-1, 1) is mapped to the estimation
// result π = (1 + f)/2 and trained with the cross-entropy loss of eq. 11
// by stochastic gradient descent (eq. 1).
//
// Networks are deterministic given a seed, cloneable, and expose their
// parameters as one flat vector [w₀ … w_{in−1} b], the vector the fusion
// centre fits and broadcasts.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/approx"
	"repro/internal/poly"
)

// Config describes a network.
type Config struct {
	// LayerSizes is the shape [in, 1]: in input features and the one
	// output of the single nonlinear layer. New refuses any other shape.
	LayerSizes []int
	// Activation is the layer's nonlinearity F.
	Activation approx.Activation
	// Seed drives the deterministic weight initialisation.
	Seed int64
}

// Network is the single-nonlinear-layer model f(x) = F(w·x + b).
type Network struct {
	// params is the flat parameter vector [w₀ … w_{in−1} b] in Params
	// layout; its length is the input width plus one.
	params []float64
	act    approx.Activation
	// dact is act.Poly's derivative (nil for an exact activation), kept so
	// the kernels run both Horner loops inline. Never written after it is
	// set, so clones share it.
	dact poly.Real
	// train is the SGD working set, built by the first Train call and
	// reused by every later one. Training rewrites the parameters, so it
	// already needs the network to itself; the read paths (Estimate,
	// EstimateClampedAppend, Loss) never touch the scratch and stay legal
	// for concurrent callers of one Network.
	train *trainScratch
}

// New builds a network with Xavier-style uniform initialisation: the
// weights drawn from one rng seeded by cfg.Seed in index order, uniform
// on ±√(6/(in+1)), and the bias 0.
func New(cfg Config) (*Network, error) {
	if len(cfg.LayerSizes) != 2 || cfg.LayerSizes[1] != 1 {
		return nil, fmt.Errorf("nn: layer sizes %v: the model is one nonlinear layer with one output, [in, 1]", cfg.LayerSizes)
	}
	in := cfg.LayerSizes[0]
	if in < 1 {
		return nil, fmt.Errorf("nn: input size %d must be >= 1", in)
	}
	if cfg.Activation.F == nil || cfg.Activation.DF == nil {
		return nil, fmt.Errorf("nn: activation with F and DF is required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{params: make([]float64, in+1), act: cfg.Activation, dact: cfg.Activation.Poly.Derivative()}
	bound := math.Sqrt(6.0 / float64(in+1))
	for j := range n.params[:in] {
		n.params[j] = (2*rng.Float64() - 1) * bound
	}
	return n, nil
}

// InputSize returns the expected feature-vector length.
func (n *Network) InputSize() int { return len(n.params) - 1 }

// preActivation is the model's w·x + b in the one order every path
// computes it: 0 + w₀x₀ + w₁x₁ + … accumulated by index, then + b.
// len(x) must be len(w).
func preActivation(w, x []float64, b float64) float64 {
	x = x[:len(w)]
	var z float64
	for j, v := range w {
		z += v * x[j]
	}
	return z + b
}

// Activation returns the network's current activation.
func (n *Network) Activation() approx.Activation { return n.act }

// Clone returns an independent deep copy sharing no state.
func (n *Network) Clone() *Network {
	return &Network{params: slices.Clone(n.params), act: n.act, dact: n.dact}
}

// Estimate returns the paper's estimation result π = (1 + f(x))/2 — the
// traffic-slowness probability. With the exact activation π ∈ (0, 1);
// polynomial activations can leave that range (use EstimateClamped where
// a probability is required). The dot product, bias add and activation
// run in locals only — no allocation and no shared scratch, so concurrent
// estimates on one Network stay legal.
func (n *Network) Estimate(x []float64) (float64, error) {
	in := n.InputSize()
	if len(x) != in {
		return 0, fmt.Errorf("nn: input length %d, want %d", len(x), in)
	}
	return (1 + n.act.F(preActivation(n.params[:in], x, n.params[in]))) / 2, nil
}

// EstimateClamped is Estimate restricted to [0, 1] — the estimation
// result as the application reports it. Polynomial activations are
// unbounded outside the approximation domain, so every interface that
// treats the estimate as a probability (uploads, aggregation, metrics)
// must use the clamped form; otherwise a single saturated model can
// dominate an average with a huge spurious value.
func (n *Network) EstimateClamped(x []float64) (float64, error) {
	pi, err := n.Estimate(x)
	if err != nil {
		return 0, err
	}
	return clampUnit(pi), nil
}

// EstimateClampedAppend appends EstimateClamped(x) for every row to dst —
// the learning channel's whole reference set in one call. The weights,
// bias and activation are loaded once and each row is the same dot
// product, bias add, activation and clamp as Estimate, in the same order,
// in locals only (concurrent callers stay legal). If row i has the wrong
// length, dst comes back holding rows 0..i−1 and the error names row i.
//
// With a polynomial activation the rows go four to a pass. A row's
// estimate is one dependency chain (len(w) additions, the bias, Horner),
// but the rows are independent, so four chains interleaved operation by
// operation let the CPU overlap them. Every row still sees exactly its
// own float operations in the row-by-row order — 0 + w₀x₀ + w₁x₁ + … by
// index, then + b; Horner from a zero accumulator; (1 + a)/2; the clamp
// — so each result is the row-by-row one bit for bit. Four is measured
// on amd64: eight rows a pass are no faster, and a pass behind a function
// call loses half the gain.
func (n *Network) EstimateClampedAppend(dst []float64, rows [][]float64) ([]float64, error) {
	in := n.InputSize()
	w, b, p, f := n.params[:in], n.params[in], n.act.Poly, n.act.F
	i := 0
	if p != nil {
		// A pass with a short row stops here; the row-by-row loop below
		// appends the rows before it and reports it.
		for ; i+4 <= len(rows) && len(rows[i]) == in && len(rows[i+1]) == in &&
			len(rows[i+2]) == in && len(rows[i+3]) == in; i += 4 {
			x0, x1, x2, x3 := rows[i][:in], rows[i+1][:in], rows[i+2][:in], rows[i+3][:in]
			var z0, z1, z2, z3 float64
			for j, v := range w {
				z0 += v * x0[j]
				z1 += v * x1[j]
				z2 += v * x2[j]
				z3 += v * x3[j]
			}
			z0, z1, z2, z3 = z0+b, z1+b, z2+b, z3+b
			var a0, a1, a2, a3 float64
			for k := len(p) - 1; k >= 0; k-- {
				c := p[k]
				a0 = a0*z0 + c
				a1 = a1*z1 + c
				a2 = a2*z2 + c
				a3 = a3*z3 + c
			}
			dst = append(dst, clampUnit((1+a0)/2), clampUnit((1+a1)/2), clampUnit((1+a2)/2), clampUnit((1+a3)/2))
		}
	}
	for ; i < len(rows); i++ {
		x := rows[i]
		if len(x) != in {
			return dst, fmt.Errorf("nn: row %d: input length %d, want %d", i, len(x), in)
		}
		z := preActivation(w, x, b)
		var a float64
		if p != nil {
			a = p.Eval(z)
		} else {
			a = f(z)
		}
		dst = append(dst, clampUnit((1+a)/2))
	}
	return dst, nil
}

// clampUnit restricts an estimate to [0, 1]; NaN passes through.
func clampUnit(pi float64) float64 {
	if pi < 0 {
		return 0
	}
	if pi > 1 {
		return 1
	}
	return pi
}

// clampProb keeps π inside (ε, 1-ε) so the cross-entropy loss and its
// gradient stay finite; polynomial activations can leave (-1, 1).
func clampProb(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// gradClip bounds the layer's delta. With the exact sigmoid the
// saturating derivative keeps deltas small automatically, but polynomial
// activations have non-vanishing derivatives everywhere: a sample whose
// clamped π opposes its label would otherwise produce a ~1/ε gradient and
// detonate the weights in one SGD step.
const gradClip = 10.0

func clipDelta(d float64) float64 {
	if d > gradClip {
		return gradClip
	}
	if d < -gradClip {
		return -gradClip
	}
	return d
}

// Loss returns the cross-entropy of eq. 11 for one sample with binary
// label y ∈ {0, 1}: L = -(y·ln π + (1-y)·ln(1-π)).
func (n *Network) Loss(x []float64, y float64) (float64, error) {
	pi, err := n.Estimate(x)
	if err != nil {
		return 0, err
	}
	return crossEntropy(clampProb(pi), y), nil
}

// crossEntropy is eq. 11's loss −(y·ln π + (1−y)·ln(1−π)) at a π that
// clampProb has kept inside (0, 1). With a label of exactly 0 or 1 one of
// the two products is ∓0·ln(…), a signed zero that leaves the other
// term's bits alone (both logarithms are finite and negative there), so
// only the other logarithm is taken; any other label takes both.
func crossEntropy(pi, y float64) float64 {
	switch y {
	case 1:
		return -math.Log(pi)
	case 0:
		return -math.Log(1 - pi)
	}
	return -(y*math.Log(pi) + (1-y)*math.Log(1-pi))
}

// dLossDPi is eq. 11's ∂L/∂π = −(y/π) + (1−y)/(1−π) at a π that
// clampProb has kept inside (0, 1). With a label of exactly 0 or 1 one of
// the two quotients is a signed zero (+0 for y = 1, −0 for y = 0) and the
// other is finite and non-zero, so the sum is the other quotient's bits:
// one division instead of two. Any other label takes both.
func dLossDPi(pi, y float64) float64 {
	switch y {
	case 1:
		return -(1 / pi)
	case 0:
		return 1 / (1 - pi)
	}
	return -(y / pi) + (1-y)/(1-pi)
}

// Sample is one labelled training tuple (x_k, y_k) from a vehicle's local
// dataset D_i.
type Sample struct {
	// X is the normalised feature vector.
	X []float64
	// Y is the binary label (1 = slow traffic).
	Y float64
}

// Train performs epochs of per-sample stochastic gradient descent (paper
// eq. 1) over the samples with learning rate rho, shuffling with rng each
// epoch as rng.Shuffle would (a nil rng keeps the samples' order). It
// takes no logarithm: each step of the final epoch keeps its clamped π
// and label in the network's training scratch, from which TrainSGD
// prices that epoch's loss.
func (n *Network) Train(samples []Sample, rho float64, epochs int, rng *rand.Rand) error {
	if len(samples) == 0 {
		return fmt.Errorf("nn: no training samples")
	}
	if rho <= 0 {
		return fmt.Errorf("nn: learning rate %g must be positive", rho)
	}
	if epochs < 1 {
		return fmt.Errorf("nn: epochs %d must be >= 1", epochs)
	}
	// Checked once here, so the epoch kernel runs without a per-sample
	// error path (and a bad sample fails the call before any
	// step has moved the parameters).
	for i := range samples {
		if len(samples[i].X) != n.InputSize() {
			return fmt.Errorf("nn: sample %d length %d, want %d", i, len(samples[i].X), n.InputSize())
		}
	}
	n.trainSingle(samples, n.scratch(len(samples)), rho, epochs, rng)
	return nil
}

// TrainSGD is Train followed by the mean loss (eq. 11) of its final
// epoch.
func (n *Network) TrainSGD(samples []Sample, rho float64, epochs int, rng *rand.Rand) (float64, error) {
	if err := n.Train(samples, rho, epochs, rng); err != nil {
		return 0, err
	}
	return n.trainedLoss(), nil
}

// trainedLoss is the mean loss of the last Train's final epoch: each
// sample's loss at π before its update, summed in the order the epoch
// visited them. It needs a Train that succeeded.
func (n *Network) trainedLoss() float64 {
	sc := n.train
	var total float64
	for k, pi := range sc.pis {
		total += crossEntropy(pi, sc.ys[k])
	}
	return total / float64(len(sc.pis))
}

// trainSingle is Train's epochs as one kernel over the flat parameter
// vector [w… b], with no scratch beyond sc's order, pis and ys, and no
// error path (the caller has checked every len(X)). Every float operation
// is the plain per-sample step's, in that step's order; kernels_test.go
// pins the two to each other bit for bit. The
// activation and its derivative are Horner from a zero accumulator
// (poly.Real.Eval, called directly so it inlines) or the F/DF closures of
// an exact activation. Every step writes its π and y to its slot, so the
// final epoch's are what stays.
//
// A step's row update and the next step's dot product are one pass over
// w: w[j] −= rd·x[j], then z′ += w[j]·x′[j]. Each pre-activation still
// sums 0 + w₀x′₀ + w₁x′₁ + … by index over the updated weights and then
// adds the updated bias, so nothing is re-associated. The next epoch's
// shuffle needs no parameters and is drawn before this epoch's last
// update, so the pass spans epochs too.
func (n *Network) trainSingle(samples []Sample, sc *trainScratch, rho float64, epochs int, rng *rand.Rand) {
	in := len(n.params) - 1
	w, b := n.params[:in], n.params[in]
	p, dp := n.act.Poly, n.dact
	order := sc.order
	pis, ys := sc.pis[:len(order)], sc.ys[:len(order)]
	shuffle(rng, order)
	cur := samples[order[0]]
	x, y := cur.X[:in], cur.Y
	z := preActivation(w, x, b)
	for e := 0; e < epochs; e++ {
		final := e == epochs-1
		for k := range order {
			var f, df float64
			if p != nil {
				f, df = p.Eval(z), dp.Eval(z)
			} else {
				f, df = n.act.F(z), n.act.DF(z)
			}
			pi := clampProb((1 + f) / 2)
			pis[k], ys[k] = pi, y
			rd := rho * clipDelta(dLossDPi(pi, y)*0.5*df)
			var next Sample
			switch {
			case k+1 < len(order):
				next = samples[order[k+1]]
			case !final:
				shuffle(rng, order)
				next = samples[order[0]]
			default:
				// The last step of the call: nothing left to fuse.
				x = x[:len(w)]
				for j := range w {
					w[j] -= rd * x[j]
				}
				b -= rd
				continue
			}
			x = x[:len(w)]
			xn := next.X[:len(w)]
			var zn float64
			for j := range w {
				w[j] -= rd * x[j]
				zn += w[j] * xn[j]
			}
			b -= rd
			x, y, z = xn, next.Y, zn+b
		}
	}
	n.params[in] = b
}

// shuffle permutes order in place exactly as rng.Shuffle(len(order), swap)
// would: Fisher–Yates from the top, j drawn as math/rand's unexported
// int31n draws it, so the permutation and rng's state afterwards are
// Shuffle's. Inline, a draw skips Shuffle's swap closure and the call
// chain down to the source. A nil rng leaves order as it is. len(order)
// must be below 2³¹, the range in which Shuffle draws with int31n.
func shuffle(rng *rand.Rand, order []int) {
	if rng == nil {
		return
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(lemire(rng, rng.Uint32(), uint32(i+1)) >> 32)
		order[i], order[j] = order[j], order[i]
	}
}

// lemire is int31n(n) for 0 < n < 2³¹ given its first draw v =
// rng.Uint32(): Lemire's multiply, redrawn from rng while the low half
// falls below 2³² mod n. It returns the accepted product; its high 32
// bits are the draw, unbiased in [0, n), after exactly the Uint32 calls
// int31n makes. Taking v, and leaving the rare redraw to a call, keeps it
// within the compiler's inlining budget, so the common case costs shuffle
// no call.
func lemire(rng *rand.Rand, v, n uint32) uint64 {
	prod := uint64(v) * uint64(n)
	if uint32(prod) < n {
		return redraw(rng, n, prod)
	}
	return prod
}

// redraw is lemire's rejection loop, entered when prod's low half is
// below n and so may fall below the threshold 2³² mod n.
func redraw(rng *rand.Rand, n uint32, prod uint64) uint64 {
	thresh := -n % n
	for uint32(prod) < thresh {
		prod = uint64(rng.Uint32()) * uint64(n)
	}
	return prod
}

// trainScratch is the SGD working set, sized once per network: the
// epoch's shuffled sample order and the final epoch's record for its
// loss.
type trainScratch struct {
	order []int
	// pis[k] and ys[k] are the clamped π and the label of the final
	// epoch's k-th step, π taken before that step's update.
	pis, ys []float64
}

// scratch returns the network's training scratch with order reset to the
// identity over the given sample count and pis and ys of that length.
func (n *Network) scratch(samples int) *trainScratch {
	sc := n.train
	if sc == nil {
		sc = &trainScratch{}
		n.train = sc
	}
	if cap(sc.order) < samples {
		sc.order = make([]int, samples)
		rec := make([]float64, 2*samples)
		sc.pis, sc.ys = rec[:samples:samples], rec[samples:]
	}
	sc.order, sc.pis, sc.ys = sc.order[:samples], sc.pis[:samples], sc.ys[:samples]
	for i := range sc.order {
		sc.order[i] = i
	}
	return sc
}

// Params returns a copy of the flat parameter vector [w₀ … w_{in−1} b]:
// the weights, then the bias. SetParams accepts the same layout.
func (n *Network) Params() []float64 { return slices.Clone(n.params) }

// ParamsView returns the live flat parameter vector in Params layout
// without copying it, for callers that only read it before the network
// next changes: it must not be written, and its contents move with every
// training call and SetParams.
func (n *Network) ParamsView() []float64 { return n.params }

// SetParams installs a flat parameter vector produced by Params.
func (n *Network) SetParams(p []float64) error {
	if len(p) != len(n.params) {
		return fmt.Errorf("nn: parameter vector length %d, want %d", len(p), len(n.params))
	}
	copy(n.params, p)
	return nil
}

// Sizes returns the layer sizes, [in, 1].
func (n *Network) Sizes() []int { return []int{n.InputSize(), 1} }
