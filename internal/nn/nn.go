// Package nn implements the multi-layer neural network the paper's
// traffic-slowness application trains (paper §V).
//
// The network is a fully-connected perceptron whose hidden and output
// neurons use the symmetric sigmoid F(x) = (1-e^(-x))/(1+e^(-x)) of
// eq. 10, or — on the L-CoFL path — a polynomial replacement produced by
// package approx. The scalar output f ∈ (-1, 1) is mapped to the
// estimation result π = (1 + f)/2 and trained with the cross-entropy loss
// of eq. 11 by stochastic gradient descent (eq. 1).
//
// Networks are deterministic given a seed, cloneable, and expose their
// parameters as a flat vector so the plain-FL baseline can FedAvg them
// (eq. 2).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/approx"
	"repro/internal/linalg"
	"repro/internal/poly"
)

// Config describes a network. LayerSizes runs input → hidden… → output;
// the paper's application uses one scalar output.
type Config struct {
	// LayerSizes lists the width of every layer, input first.
	LayerSizes []int
	// Activation applies to every non-input layer.
	Activation approx.Activation
	// Seed drives the deterministic weight initialisation.
	Seed int64
}

// Network is a fully-connected multi-layer perceptron.
type Network struct {
	sizes []int
	// params is the flat parameter vector in Params layout (layer by
	// layer: weights row-major, then biases). weights and biases are views
	// onto it, so whole-vector updates — the full-batch step,
	// Params/SetParams — are single loops in Params order.
	params  []float64
	weights []*linalg.Matrix // weights[l]: sizes[l+1] × sizes[l]
	biases  [][]float64      // biases[l]: sizes[l+1]
	act     approx.Activation
	// dact is act.Poly's derivative (nil for an exact activation), kept so
	// the single-layer kernels run both Horner loops inline. Never written
	// after it is set, so clones share it.
	dact poly.Real
	// train is the SGD working set, built by the first TrainSGD call and
	// reused by every later one. Training rewrites the parameters, so it
	// already needs the network to itself; the read paths (Forward,
	// Estimate, Loss, Gradient) never touch the scratch and stay legal
	// for concurrent callers of one Network.
	train *trainScratch
}

// newNetwork lays zeroed weights and biases for the given layer sizes
// over one flat parameter vector.
func newNetwork(sizes []int, act approx.Activation) *Network {
	total := 0
	for l := 0; l+1 < len(sizes); l++ {
		total += sizes[l+1] * (sizes[l] + 1)
	}
	n := &Network{
		sizes:   append([]int(nil), sizes...),
		params:  make([]float64, total),
		weights: make([]*linalg.Matrix, 0, len(sizes)-1),
		biases:  make([][]float64, 0, len(sizes)-1),
		act:     act,
	}
	rest := n.params
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		n.weights = append(n.weights, linalg.MatrixOver(out, in, rest[:out*in]))
		n.biases = append(n.biases, rest[out*in:out*in+out:out*in+out])
		rest = rest[out*in+out:]
	}
	return n
}

// New builds a network with Xavier-style uniform initialisation.
func New(cfg Config) (*Network, error) {
	if len(cfg.LayerSizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output layers, got %v", cfg.LayerSizes)
	}
	for i, s := range cfg.LayerSizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: layer %d has size %d", i, s)
		}
	}
	if cfg.Activation.F == nil || cfg.Activation.DF == nil {
		return nil, fmt.Errorf("nn: activation with F and DF is required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := newNetwork(cfg.LayerSizes, cfg.Activation)
	n.dact = cfg.Activation.Poly.Derivative()
	for _, w := range n.weights {
		bound := math.Sqrt(6.0 / float64(w.Cols()+w.Rows()))
		for i := 0; i < w.Rows(); i++ {
			for j := 0; j < w.Cols(); j++ {
				w.Set(i, j, (2*rng.Float64()-1)*bound)
			}
		}
	}
	return n, nil
}

// InputSize returns the expected feature-vector length.
func (n *Network) InputSize() int { return n.sizes[0] }

// OutputSize returns the output-vector length.
func (n *Network) OutputSize() int { return n.sizes[len(n.sizes)-1] }

// singleLayer reports the shape [in, 1]: one nonlinear layer, one output.
// It is the only shape L-CoFL admits (core.Scheme.BeginRound), and the
// one with its own kernels (stepSingle, EstimateClampedAppend).
func (n *Network) singleLayer() bool { return len(n.sizes) == 2 && n.sizes[1] == 1 }

// preActivation is a single-layer model's w·x + b in the one order every
// path computes it: 0 + w₀x₀ + w₁x₁ + … accumulated by index, then + b.
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
	out := newNetwork(n.sizes, n.act)
	out.dact = n.dact
	copy(out.params, n.params)
	return out
}

// Forward runs the network on one feature vector and returns the output
// activations.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.InputSize() {
		return nil, fmt.Errorf("nn: input length %d, want %d", len(x), n.InputSize())
	}
	a := linalg.Clone(x)
	for l := range n.weights {
		z, err := n.weights[l].MulVec(a)
		if err != nil {
			return nil, err
		}
		linalg.VecAddInPlace(z, n.biases[l])
		for i := range z {
			z[i] = n.act.F(z[i])
		}
		a = z
	}
	return a, nil
}

// Estimate returns the paper's estimation result π = (1 + f(x))/2 for a
// single-output network — the traffic-slowness probability. With the
// exact activation π ∈ (0, 1); polynomial activations can leave that
// range (use EstimateClamped where a probability is required).
func (n *Network) Estimate(x []float64) (float64, error) {
	if n.OutputSize() != 1 {
		return 0, fmt.Errorf("nn: Estimate requires a single output, network has %d", n.OutputSize())
	}
	if len(n.weights) == 1 {
		// The single-layer shape L-CoFL requires: Forward's dot product,
		// bias add and activation in locals only — no allocation and no
		// shared scratch, so concurrent estimates on one Network stay legal.
		if len(x) != n.InputSize() {
			return 0, fmt.Errorf("nn: input length %d, want %d", len(x), n.InputSize())
		}
		in := n.sizes[0]
		return (1 + n.act.F(preActivation(n.params[:in], x, n.params[in]))) / 2, nil
	}
	out, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return (1 + out[0]) / 2, nil
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
// the learning channel's whole reference set in one call. On the
// single-layer shape the weights, bias and activation are loaded once and
// each row is the same dot product, bias add, activation and clamp as
// Estimate, in the same order, in locals only (concurrent callers stay
// legal); other shapes go row by row. If row i has the wrong length, dst
// comes back holding rows 0..i−1 and the error names row i.
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
	if !n.singleLayer() {
		for i, x := range rows {
			pi, err := n.EstimateClamped(x)
			if err != nil {
				return dst, fmt.Errorf("nn: row %d: %w", i, err)
			}
			dst = append(dst, pi)
		}
		return dst, nil
	}
	in := n.sizes[0]
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

// gradClip bounds the output-layer delta. With the exact sigmoid the
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
	pi = clampProb(pi)
	return -(y*math.Log(pi) + (1-y)*math.Log(1-pi)), nil
}

// Sample is one labelled training tuple (x_k, y_k) from a vehicle's local
// dataset D_i.
type Sample struct {
	// X is the normalised feature vector.
	X []float64
	// Y is the binary label (1 = slow traffic).
	Y float64
}

// TrainSGD performs epochs of per-sample stochastic gradient descent
// (paper eq. 1) over the samples with learning rate rho, shuffling with
// rng each epoch, and returns the mean loss of the final epoch.
func (n *Network) TrainSGD(samples []Sample, rho float64, epochs int, rng *rand.Rand) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no training samples")
	}
	if rho <= 0 {
		return 0, fmt.Errorf("nn: learning rate %g must be positive", rho)
	}
	if epochs < 1 {
		return 0, fmt.Errorf("nn: epochs %d must be >= 1", epochs)
	}
	if n.OutputSize() != 1 {
		// The paper's application trains a scalar estimation head
		// (eq. 11); vector targets are out of scope.
		return 0, fmt.Errorf("nn: SGD training requires a single output, network has %d", n.OutputSize())
	}
	// Checked once here, so the single-layer kernel below runs without a
	// per-sample error path (and a bad sample fails the call before any
	// step has moved the parameters).
	for i := range samples {
		if len(samples[i].X) != n.InputSize() {
			return 0, fmt.Errorf("nn: sample %d length %d, want %d", i, len(samples[i].X), n.InputSize())
		}
	}
	sc := n.scratch(len(samples))
	swap := func(i, j int) { sc.order[i], sc.order[j] = sc.order[j], sc.order[i] }
	single := n.singleLayer()
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		if rng != nil {
			rng.Shuffle(len(sc.order), swap)
		}
		// Only the final epoch's mean loss is returned, so only the final
		// epoch pays for the two logarithms per sample.
		final := e == epochs-1
		var total float64
		if single {
			// What every vehicle of a node session runs.
			for _, idx := range sc.order {
				total += n.stepSingle(samples[idx], rho, final)
			}
		} else {
			for _, idx := range sc.order {
				loss, err := n.step(sc, samples[idx], rho, final)
				if err != nil {
					return 0, err
				}
				total += loss
			}
		}
		lastLoss = total / float64(len(samples))
	}
	return lastLoss, nil
}

// stepSingle is step on the single-layer shape, fused: the dot product,
// activation, loss gradient and row update of one sample on the flat
// parameter vector [w… b], with no scratch and no error path (the caller
// has checked len(s.X)). Every float operation is step's, in step's
// order — the pre-activation is 0 + w₀x₀ + … in index order and then + b,
// the activation and its derivative are Horner from a zero accumulator
// (poly.Real.Eval, called directly so it inlines) or the F/DF closures of
// an exact activation, nothing is re-associated or fused — so the two are
// bit-identical; kernels_test.go pins both to one reference.
func (n *Network) stepSingle(s Sample, rho float64, wantLoss bool) float64 {
	in := len(n.params) - 1
	w, x := n.params[:in], s.X[:in]
	z := preActivation(w, x, n.params[in])
	var f, df float64
	if p := n.act.Poly; p != nil {
		f, df = p.Eval(z), n.dact.Eval(z)
	} else {
		f, df = n.act.F(z), n.act.DF(z)
	}
	pi := clampProb((1 + f) / 2)
	var loss float64
	if wantLoss {
		// With a binary label one of eq. 11's two products is ∓0·ln(…), a
		// signed zero that adds nothing to the other (both logarithms are
		// finite and negative inside clampProb's range): skip its
		// logarithm. Same float, half the logarithms.
		switch s.Y {
		case 1:
			loss = -math.Log(pi)
		case 0:
			loss = -math.Log(1 - pi)
		default:
			loss = -(s.Y*math.Log(pi) + (1-s.Y)*math.Log(1-pi))
		}
	}
	dLdPi := -(s.Y / pi) + (1-s.Y)/(1-pi)
	rd := rho * clipDelta(dLdPi*0.5*df)
	for j := range w {
		w[j] -= rd * x[j]
	}
	n.params[in] -= rd
	return loss
}

// trainScratch is the working set of one SGD step, sized once per
// network: per-layer activations, pre-activations and deltas, and the
// epoch's shuffled sample order.
type trainScratch struct {
	as     [][]float64 // as[0] aliases the sample's X; as[l+1]: layer l's activations
	zs     [][]float64 // zs[l]: layer l's pre-activations
	deltas [][]float64 // deltas[l]: loss gradient at layer l's pre-activations
	order  []int
}

// scratch returns the network's training scratch with order reset to the
// identity over the given sample count.
func (n *Network) scratch(samples int) *trainScratch {
	sc := n.train
	if sc == nil {
		L := len(n.weights)
		sc = &trainScratch{
			as:     make([][]float64, L+1),
			zs:     make([][]float64, L),
			deltas: make([][]float64, L),
		}
		units := 0
		for _, width := range n.sizes[1:] {
			units += width
		}
		slab := make([]float64, 3*units)
		for l := 0; l < L; l++ {
			width := n.sizes[l+1]
			sc.as[l+1], sc.zs[l], sc.deltas[l] = slab[:width], slab[width:2*width], slab[2*width:3*width]
			slab = slab[3*width:]
		}
		n.train = sc
	}
	if cap(sc.order) < samples {
		sc.order = make([]int, samples)
	}
	sc.order = sc.order[:samples]
	for i := range sc.order {
		sc.order[i] = i
	}
	return sc
}

// step backpropagates one sample and applies the gradient in place,
// returning the sample's loss when wantLoss is set (0 otherwise). It is
// the general path: any depth, the caller having checked len(s.X).
func (n *Network) step(sc *trainScratch, s Sample, rho float64, wantLoss bool) (float64, error) {
	L := len(n.weights)
	// Forward pass caching pre-activations z and activations a. The sample
	// is read, never written, so as[0] aliases it.
	as, zs := sc.as, sc.zs
	as[0] = s.X
	for l := 0; l < L; l++ {
		z, a := zs[l], as[l+1]
		if err := n.weights[l].MulVecInto(z, as[l]); err != nil {
			return 0, err
		}
		linalg.VecAddInPlace(z, n.biases[l])
		for i := range z {
			a[i] = n.act.F(z[i])
		}
	}

	// Loss and output-layer delta.
	// π = (1+f)/2, L = -(y ln π + (1-y) ln(1-π)),
	// dL/df = (π - y) / (2π(1-π)) · ... computing directly:
	// dL/dπ = -(y/π) + (1-y)/(1-π); dπ/df = 1/2.
	out := as[L][0]
	pi := clampProb((1 + out) / 2)
	var loss float64
	if wantLoss {
		loss = -(s.Y*math.Log(pi) + (1-s.Y)*math.Log(1-pi))
	}
	dLdPi := -(s.Y / pi) + (1-s.Y)/(1-pi)
	delta := sc.deltas[L-1]
	delta[0] = clipDelta(dLdPi * 0.5 * n.act.DF(zs[L-1][0]))

	// Backward pass: propagate each layer's delta with the pre-update
	// weights, then apply the gradient step to the weight rows in place.
	for l := L - 1; l >= 0; l-- {
		w := n.weights[l]
		var next []float64
		if l > 0 {
			next = sc.deltas[l-1]
			for j := range next {
				var s float64
				for i := range delta {
					s += w.At(i, j) * delta[i]
				}
				next[j] = s * n.act.DF(zs[l-1][j])
			}
		}
		prev := as[l]
		for i, d := range delta {
			row := w.RowView(i)
			for j := range prev {
				row[j] -= rho * d * prev[j]
			}
			n.biases[l][i] -= rho * d
		}
		delta = next
	}
	return loss, nil
}

// Gradient computes the loss and the flat gradient vector (Params layout)
// of the cross-entropy loss for one sample, without updating the network.
func (n *Network) Gradient(s Sample) (float64, []float64, error) {
	if len(s.X) != n.InputSize() {
		return 0, nil, fmt.Errorf("nn: sample length %d, want %d", len(s.X), n.InputSize())
	}
	if n.OutputSize() != 1 {
		return 0, nil, fmt.Errorf("nn: Gradient requires a single output, network has %d", n.OutputSize())
	}
	L := len(n.weights)
	as := make([][]float64, L+1)
	zs := make([][]float64, L)
	as[0] = linalg.Clone(s.X)
	for l := 0; l < L; l++ {
		z, err := n.weights[l].MulVec(as[l])
		if err != nil {
			return 0, nil, err
		}
		linalg.VecAddInPlace(z, n.biases[l])
		zs[l] = z
		a := make([]float64, len(z))
		for i := range z {
			a[i] = n.act.F(z[i])
		}
		as[l+1] = a
	}
	out := as[L][0]
	pi := clampProb((1 + out) / 2)
	loss := -(s.Y*math.Log(pi) + (1-s.Y)*math.Log(1-pi))
	dLdPi := -(s.Y / pi) + (1-s.Y)/(1-pi)
	delta := []float64{clipDelta(dLdPi * 0.5 * n.act.DF(zs[L-1][0]))}

	// Per-layer gradients, assembled back-to-front then flattened in
	// Params order (front-to-back).
	wg := make([][]float64, L) // flattened weight grads per layer
	bg := make([][]float64, L)
	for l := L - 1; l >= 0; l-- {
		prev := as[l]
		wgl := make([]float64, len(delta)*len(prev))
		for i := range delta {
			for j := range prev {
				wgl[i*len(prev)+j] = delta[i] * prev[j]
			}
		}
		wg[l] = wgl
		bg[l] = linalg.Clone(delta)
		if l == 0 {
			break
		}
		next := make([]float64, len(as[l]))
		for j := range next {
			var sum float64
			for i := range delta {
				sum += n.weights[l].At(i, j) * delta[i]
			}
			next[j] = sum * n.act.DF(zs[l-1][j])
		}
		delta = next
	}
	flat := make([]float64, 0, n.NumParams())
	for l := 0; l < L; l++ {
		flat = append(flat, wg[l]...)
		flat = append(flat, bg[l]...)
	}
	return loss, flat, nil
}

// TrainFullBatch performs epochs of deterministic full-batch gradient
// descent: each epoch applies the mean gradient over all samples once.
// The fusion centre's distillation update uses this (package fl) because
// it is reproducible and free of SGD shuffle noise. Returns the mean loss
// of the final epoch.
func (n *Network) TrainFullBatch(samples []Sample, rate float64, epochs int) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no training samples")
	}
	if rate <= 0 {
		return 0, fmt.Errorf("nn: learning rate %g must be positive", rate)
	}
	if epochs < 1 {
		return 0, fmt.Errorf("nn: epochs %d must be >= 1", epochs)
	}
	var lastLoss float64
	acc := make([]float64, n.NumParams())
	for e := 0; e < epochs; e++ {
		for i := range acc {
			acc[i] = 0
		}
		var total float64
		for _, s := range samples {
			loss, g, err := n.Gradient(s)
			if err != nil {
				return 0, err
			}
			total += loss
			linalg.VecAddInPlace(acc, g)
		}
		linalg.AXPYInPlace(n.params, -rate/float64(len(samples)), acc)
		lastLoss = total / float64(len(samples))
	}
	return lastLoss, nil
}

// Params returns a copy of the flat parameter vector: all weights and
// biases, layer by layer (weights row-major, then biases). SetParams
// accepts the same layout.
func (n *Network) Params() []float64 { return linalg.Clone(n.params) }

// ParamsView returns the live flat parameter vector in Params layout
// without copying it, for callers that only read it before the network
// next changes: it must not be written, and its contents move with every
// training call, SetParams and ProjectWeights.
func (n *Network) ParamsView() []float64 { return n.params }

// NumParams returns the flat parameter count.
func (n *Network) NumParams() int { return len(n.params) }

// SetParams installs a flat parameter vector produced by Params.
func (n *Network) SetParams(p []float64) error {
	if len(p) != len(n.params) {
		return fmt.Errorf("nn: parameter vector length %d, want %d", len(p), len(n.params))
	}
	copy(n.params, p)
	return nil
}

// Sizes returns a copy of the layer sizes.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }
